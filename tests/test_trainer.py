import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.benchmark import benchmark_config, benchmark_split
from osrkit.data import SplitSpec, apply_split, gen_synthetic
from osrkit.errors import ConfigError, DegenerateInputError, NumericError, OsrkitError, UsageError
from osrkit.evaluate import predict_closed
from osrkit.losses import LossConfig, classification_logits, total_loss
from osrkit.model import (ModelConfig, bind_parameters, embed_backward, embed_forward, flatten,
                          init_model)
from osrkit.numerics import Metric
from osrkit.train import (
    Adam,
    SGD,
    EpochRecord,
    TrainConfig,
    _apply_overrides,
    cartesian_cells,
    desk_preset,
    gap_threshold_cells,
    make_optimizer,
    margin_metric_cells,
    optimizer_step,
    paper_preset,
    sweep,
    train,
    variant_loss,
    weight_cells,
    write_history_csv,
    write_sweep_csv,
)

# the package re-exports the function ``train``, which hides the module
train_module = importlib.import_module("osrkit.train")


def small_split(seed=0):
    ds = gen_synthetic(4, 30, 5, 4.0, 0.8, seed=seed)
    return apply_split(ds, SplitSpec([0, 1], [2, 3]), 0.3, seed=seed)


def small_config(seed=0, epochs=3, **loss_kwargs):
    loss = LossConfig(**loss_kwargs) if loss_kwargs else LossConfig()
    return TrainConfig(
        model=ModelConfig([5, 8, 4], seed=seed),
        loss=loss,
        epochs=epochs,
        batch_size=8,
        learning_rate=1e-3,
        seed=seed,
    )


def adam_per_array(params, grads, state, lr, t):
    """Adam as a loop over separate arrays, the form the flat step replaced."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if not state:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def sgd_per_array(params, grads, state, lr, t):
    for p, g in zip(params, grads):
        p -= lr * g


def train_per_step_public(split, config):
    """``train`` as its loop was written on the public kernels: a validated
    ``total_loss``, ``embed_backward`` and a ``flatten``ed gradient per step.
    Returns (embedder, bank, history records)."""
    embedder, bank = init_model(config.model, split.num_known)
    params = bind_parameters(embedder, bank)
    optimizer = make_optimizer(config)
    rng = np.random.default_rng(int(config.seed))
    n = len(split.train)
    records = []
    alpha, beta = config.loss.alpha, config.loss.beta
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = {"classification": 0.0, "margin": 0.0, "overconfidence": 0.0}
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            feats, cache = embed_forward(embedder, split.train.inputs[batch])
            out = total_loss(feats, bank, split.train.labels[batch], config.loss)
            egrads, _ = embed_backward(cache, out.grad_features)
            grads = flatten(*egrads.weights, *egrads.biases, out.grad_points, out.grad_margins)
            optimizer_step(optimizer, params, bank, grads)
            for key in sums:
                sums[key] += out.parts[key] * len(batch)
        means = {key: sums[key] / n for key in sums}
        total = means["classification"] + alpha * means["margin"] + beta * means["overconfidence"]
        feats, _ = embed_forward(embedder, split.test_known.inputs)
        logits = classification_logits(feats, bank, config.loss.classification_metric,
                                       config.loss.tau)
        val_acc = float((predict_closed(logits) == split.test_known.labels).mean())
        records.append(EpochRecord(epoch, total, means["classification"], means["margin"],
                                   means["overconfidence"], val_acc))
    return embedder, bank, records


def model_bytes(embedder, bank) -> bytes:
    return flatten(*embedder.weights, *embedder.biases, bank.points, bank.margins).tobytes()


class TestOptimizers:
    def test_zero_gradients_leave_params(self):
        for opt in (SGD(0.1), Adam(0.1)):
            p = np.array([1.0, -2.0, 3.0])
            before = p.copy()
            opt.step(p, np.zeros(3))
            np.testing.assert_array_equal(p, before)

    def test_sgd_definition(self):
        p = np.array([0.0, 2.0])
        SGD(0.1).step(p, np.array([1.0, -3.0]))
        np.testing.assert_allclose(p, [-0.1, 2.3], rtol=0, atol=1e-15)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step has magnitude ~lr regardless of |g|
        p = np.zeros(3)
        Adam(0.01).step(p, np.array([1e-3, 1.0, 1e3]))
        np.testing.assert_allclose(p, -0.01, rtol=0, atol=1e-6)
        assert (p < 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            SGD(0.1).step(np.zeros(2), np.zeros(3))
        with pytest.raises(UsageError):
            Adam(0.1).step(np.zeros(2), np.zeros(3))
        adam = Adam(0.1)
        adam.step(np.zeros(2), np.zeros(2))
        with pytest.raises(UsageError, match="optimizer state"):
            adam.step(np.zeros(3), np.zeros(3))

    def test_optimizer_step_projects_margins(self):
        emb, bank = init_model(ModelConfig([3, 2], seed=0), 2)
        params = bind_parameters(emb, bank)
        bank.margins[:] = [0.05, 0.0]
        grads = np.zeros_like(params)
        grads[-2:] = 1.0
        optimizer_step(SGD(1.0), params, bank, grads)
        # raw update would be [-0.95, -1.0]; projection clamps to zero
        np.testing.assert_array_equal(bank.margins, [0.0, 0.0])
        np.testing.assert_array_equal(params[-2:], [0.0, 0.0])

    def test_views_alias_the_vector(self):
        emb, bank = init_model(ModelConfig([3, 4, 2], seed=0), 3)
        arrays = [a.copy() for a in (*emb.weights, *emb.biases, bank.points, bank.margins)]
        params = bind_parameters(emb, bank)
        np.testing.assert_array_equal(params, np.concatenate([a.ravel() for a in arrays]))
        grads = -np.linspace(0.1, 1.0, params.size)  # every parameter, margins too, rises
        optimizer_step(Adam(0.1), params, bank, grads)
        views = [*emb.weights, *emb.biases, bank.points, bank.margins]
        for view, before in zip(views, arrays):
            assert view.shape == before.shape
            assert np.shares_memory(view, params)
            assert not np.array_equal(view, before)
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in views]), params)
        bank.margins[0] = -1.0
        bank.project_margins()
        assert params[-3] == 0.0

    @given(
        st.lists(st.lists(st.integers(1, 4), min_size=0, max_size=2), min_size=1, max_size=5),
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from(["adam", "sgd"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_flat_step_matches_per_array_loop(self, shapes, seed, kind):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        flat = flatten(*arrays)
        opt = Adam(0.01) if kind == "adam" else SGD(0.01)
        oracle = adam_per_array if kind == "adam" else sgd_per_array
        state: dict = {}
        for t in range(1, 5):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4) for shape in shapes]
            oracle(arrays, grads, state, 0.01, t)
            opt.step(flat, flatten(*grads))
            assert flat.tobytes() == flatten(*arrays).tobytes()


class TestTrain:
    def test_one_sgd_step_moves_each_array_by_its_own_gradient(self):
        # pairs every array with its gradient by name, independently of the flat layout
        split = small_split()
        cfg = small_config(epochs=1)
        cfg.batch_size, cfg.optimizer, cfg.learning_rate = len(split.train), "sgd", 0.1
        emb, bank, _ = train(split, cfg)
        emb0, bank0 = init_model(cfg.model, split.num_known)
        batch = np.random.default_rng(cfg.seed).permutation(len(split.train))
        feats, cache = embed_forward(emb0, split.train.inputs[batch])
        out = total_loss(feats, bank0, split.train.labels[batch], cfg.loss)
        egrads, _ = embed_backward(cache, out.grad_features)
        pairs = [*zip(emb.weights, emb0.weights, egrads.weights),
                 *zip(emb.biases, emb0.biases, egrads.biases),
                 (bank.points, bank0.points, out.grad_points)]
        for after, before, grad in pairs:
            np.testing.assert_array_equal(after, before - 0.1 * grad)
        margins = np.maximum(bank0.margins - 0.1 * out.grad_margins, 0.0)
        np.testing.assert_array_equal(bank.margins, margins)

    def test_zero_epochs_returns_initialized_model(self):
        split = small_split()
        cfg = small_config(epochs=0)
        emb, bank, history = train(split, cfg)
        emb0, bank0 = init_model(cfg.model, split.num_known)
        for a, b in zip(emb.weights, emb0.weights):
            assert (a == b).all()
        assert (bank.points == bank0.points).all()
        assert len(history) == 0

    def test_bit_deterministic(self):
        split = small_split()
        r1 = train(split, small_config(epochs=4))
        r2 = train(split, small_config(epochs=4))
        for a, b in zip(r1[0].weights, r2[0].weights):
            assert a.tobytes() == b.tobytes()
        assert r1[1].points.tobytes() == r2[1].points.tobytes()
        assert r1[1].margins.tobytes() == r2[1].margins.tobytes()
        for ra, rb in zip(r1[2].records, r2[2].records):
            assert np.array_equal(
                np.array([ra.epoch, ra.total, ra.classification, ra.margin,
                          ra.overconfidence, ra.val_accuracy]),
                np.array([rb.epoch, rb.total, rb.classification, rb.margin,
                          rb.overconfidence, rb.val_accuracy]),
                equal_nan=True,
            )

    def test_history_identity_and_margins(self):
        split = small_split()
        cfg = small_config(epochs=5, alpha=0.2, beta=0.3, gap_threshold=0.1)
        emb, bank, history = train(split, cfg)
        assert len(history) == 5
        for r in history.records:
            expected = r.classification + 0.2 * r.margin + 0.3 * r.overconfidence
            assert r.total == pytest.approx(expected, abs=1e-12)
        assert (bank.margins >= 0).all()

    def test_training_makes_progress_on_benchmark(self):
        split = benchmark_split(seed=0)
        cfg = benchmark_config("full", seed=0)
        _, _, history = train(split, cfg)
        assert history.records[-1].classification < history.records[0].classification

    def test_input_dim_mismatch(self):
        split = small_split()
        cfg = small_config()
        cfg.model.layer_dims[0] = 7
        with pytest.raises(ConfigError):
            train(split, cfg)

    def test_val_accuracy_recorded_on_schedule(self):
        split = small_split()
        cfg = small_config(epochs=5)
        cfg.eval_every = 2
        _, _, history = train(split, cfg)
        evaluated = [i for i, r in enumerate(history.records) if not np.isnan(r.val_accuracy)]
        assert evaluated == [1, 3, 4]  # every 2nd epoch plus the last

    def test_history_csv(self, tmp_path):
        split = small_split()
        _, _, history = train(split, small_config(epochs=2))
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,total,cls,amc,coc,val_acc"
        assert len(lines) == 3


    @given(
        seed=st.integers(0, 2 ** 16),
        classes=st.integers(3, 5),
        per_class=st.integers(3, 12),
        hidden=st.lists(st.integers(1, 9), max_size=2),
        out_dim=st.integers(1, 6),
        batch_size=st.integers(1, 13),
        epochs=st.integers(1, 3),
        cls_metric=st.sampled_from([Metric.ANGULAR, Metric.EUCLIDEAN]),
        margin_metric=st.sampled_from(list(Metric)),
        alpha=st.sampled_from([0.0, 0.3]),
        beta=st.sampled_from([0.0, 0.7]),
        tau=st.sampled_from([0.5, 1.0, 3.0]),
        gap=st.sampled_from([0.0, 0.25, 1.5]),
        optimizer=st.sampled_from(["adam", "sgd"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_the_per_step_public_loop(
        self, seed, classes, per_class, hidden, out_dim, batch_size, epochs, cls_metric,
        margin_metric, alpha, beta, tau, gap, optimizer,
    ):
        dim = 4
        ds = gen_synthetic(classes, per_class, dim, 3.0, 1.0, seed=seed)
        known = list(range(classes - 1))
        split = apply_split(ds, SplitSpec(known, [classes - 1]), 0.3, seed=seed)
        cfg = TrainConfig(
            model=ModelConfig([dim, *hidden, out_dim], seed=seed),
            loss=LossConfig(tau=tau, alpha=alpha, beta=beta, gap_threshold=gap,
                            classification_metric=cls_metric, margin_metric=margin_metric),
            epochs=epochs, batch_size=batch_size, learning_rate=0.05, optimizer=optimizer,
            seed=seed, eval_every=1,
        )
        try:
            oracle = train_per_step_public(split, cfg)
        except OsrkitError as exc:  # e.g. a ReLU layer that zeroes a row under angular scores
            with pytest.raises(type(exc)):
                train(split, cfg)
            return
        emb, bank, history = train(split, cfg)
        assert model_bytes(emb, bank) == model_bytes(*oracle[:2])
        for got, want in zip(history.records, oracle[2], strict=True):
            assert np.array(dataclasses.astuple(got)).tobytes() == \
                np.array(dataclasses.astuple(want)).tobytes()


class TestTrainErrors:
    """Error class per failure on the training path (the CLI maps them to exit codes)."""

    def test_zero_inputs_under_angular_scores_are_degenerate(self):
        split = small_split()
        split.train.inputs[:] = 0.0
        with pytest.raises(DegenerateInputError, match="features row 0 has norm"):
            train(split, small_config())

    def test_nan_input_rejected_before_the_first_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a training step ran on non-finite inputs")

        monkeypatch.setattr(train_module, "embed_forward", no_step)
        split = small_split()
        split.train.inputs[5, 2] = np.nan
        with pytest.raises(NumericError, match="training inputs contains non-finite"):
            train(split, small_config())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_input_names_epoch_and_batch(self):
        split = small_split()
        split.train.inputs[:, 0] = 1e200
        with pytest.raises(NumericError, match="non-finite loss inf at epoch 0, batch 0"):
            train(split, small_config())


class TestPresets:
    def test_paper_preset_values(self):
        cfg = paper_preset(ModelConfig([4, 2], seed=0))
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.optimizer) == (
            90, 64, 1e-5, "adam",
        )

    def test_desk_preset_values(self):
        cfg = desk_preset(ModelConfig([4, 2], seed=0))
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (200, 32, 1e-3)

    def test_variant_arms_expressible_via_config_only(self):
        full = variant_loss("full")
        assert full.classification_metric is Metric.ANGULAR and full.beta > 0
        eucl = variant_loss("euclidean")
        assert eucl.classification_metric is Metric.EUCLIDEAN and eucl.beta > 0
        uncal = variant_loss("uncalibrated")
        assert uncal.classification_metric is Metric.ANGULAR and uncal.beta == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            variant_loss("bogus")


class TestSweep:
    def test_preset_grids_have_published_row_counts(self):
        assert len(gap_threshold_cells()) == 5
        assert len(weight_cells()) == 7
        assert len(margin_metric_cells()) == 4

    def test_cartesian_order(self):
        cells = cartesian_cells({"a": [1, 2], "b": [10, 20]})
        assert cells == [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
        ]

    def test_sweep_rows_and_determinism(self, tmp_path):
        split = small_split()
        base = small_config(epochs=2)
        cells = [{"gap_threshold": t} for t in (0.1, 0.5)]
        rows1 = sweep(base, cells, split)
        rows2 = sweep(base, cells, split)
        assert len(rows1) == 2
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_sweep_csv(p1, rows1)
        write_sweep_csv(p2, rows2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "gap_threshold,acc,auroc,oscr"

    def test_failed_cell_marks_row(self, tmp_path):
        split = small_split()
        base = small_config(epochs=1)
        rows = sweep(base, [{"tau": -1.0}, {"tau": 1.0}], split)
        assert rows[0].error is not None
        assert rows[1].error is None
        path = tmp_path / "s.csv"
        write_sweep_csv(path, rows)
        assert "error" in path.read_text().splitlines()[1]

    def test_unknown_parameter_rejected(self):
        split = small_split()
        with pytest.raises(ConfigError):
            sweep(small_config(epochs=1), [{"nonsense": 1}], split)

    def test_malformed_value_rejected_before_training(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a cell trained before every cell was checked")

        monkeypatch.setattr(train_module, "train", no_training)
        with pytest.raises(ConfigError, match="epochs"):
            sweep(small_config(epochs=1), [{"epochs": 1}, {"epochs": "abc"}], small_split())

    def test_seed_reaches_model_and_training(self):
        cfg = _apply_overrides(small_config(seed=0), {"seed": 3})
        assert cfg.seed == 3
        assert cfg.model.seed == 3

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug inside a cell")

        monkeypatch.setattr(train_module, "train", broken)
        with pytest.raises(TypeError, match="bug inside a cell"):
            sweep(small_config(epochs=1), [{"tau": 1.0}], small_split())

    def test_metric_cells_swap_margin_metric(self):
        split = small_split()
        base = small_config(epochs=1)
        rows = sweep(base, margin_metric_cells(), split)
        assert [r.overrides["margin_metric"] for r in rows] == [
            Metric.EUCLIDEAN, Metric.ANGULAR, Metric.MANHATTAN, Metric.CHEBYSHEV,
        ]
        assert all(r.error is None for r in rows)
