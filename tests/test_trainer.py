import argparse
import copy
import csv
import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.benchmark import benchmark_config, benchmark_split
from osrkit.cli import build_parser
from osrkit.config import (GRIDS, PRESETS, VARIANTS, TrainConfig, _cast, cartesian_cells, key_text,
                           named, param_cells, with_keys)
from osrkit.data import SplitSpec, apply_split, gen_synthetic
from osrkit.errors import (ConfigError, DataError, DegenerateInputError, NumericError, OsrkitError,
                           UsageError)
from osrkit.losses import LossConfig, total_loss
from osrkit.model import ModelConfig, _forward, bind_parameters, flatten, init_model
from osrkit.numerics import Metric
from osrkit.train import (
    Adam,
    SGD,
    EpochRecord,
    SweepRow,
    sweep,
    train,
    write_history_csv,
    write_sweep_csv,
)
from test_eval import unblocked_logits
from test_model import embed_gradients

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


def template_history_csv(path, history):
    """``write_history_csv`` as it was, one ``%`` over a row template per record: the oracle."""
    row = ",".join(["%.17g"] * len(dataclasses.fields(EpochRecord))) + "\n"
    body = (row * len(history)) % tuple(x for r in history for x in dataclasses.astuple(r))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,total,cls,amc,coc,val_acc\n" + body)


def per_row_sweep_csv(path, rows):
    """``write_sweep_csv`` as it was, one write per row: the oracle."""
    names = list(rows[0].overrides.keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names + ["acc", "auroc", "oscr"]) + "\n")
        for row in rows:
            cells = [key_text(row.overrides[n]) for n in names]
            if row.error is not None:
                cells += ["error", "error", "error"]
            else:
                cells += [f"{row.accuracy:.17g}", f"{row.auroc:.17g}", f"{row.oscr:.17g}"]
            fh.write(",".join(cells) + "\n")


# floats with the edge values drawn often: nan, signed zeros, the largest and subnormals
EDGE_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), 0.0, -0.0, 1e308, -1e308, 5e-324, -2.5e-320, 2.2250738585072009e-308])
HISTORIES = st.lists(st.builds(EpochRecord, st.integers(0, 10 ** 6), EDGE_FLOATS, EDGE_FLOATS,
                               EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS), max_size=6)
# a sweep parameter of each type a cell holds; strs with non-ASCII text and a trailing NUL
PARAM_VALUES = st.one_of(st.booleans(), st.integers(), EDGE_FLOATS, st.sampled_from(list(Metric)),
                         st.lists(st.integers(0, 99), max_size=4), st.text(max_size=6),
                         st.sampled_from(["µs", "wärme", "a\x00", ""]))


@st.composite
def sweep_rows(draw):
    """1-5 ``SweepRow``s over 0-3 parameters; a failed row's error text may be empty."""
    names = draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        overrides = {name: draw(PARAM_VALUES) for name in names}
        error = draw(st.none() | st.text(max_size=6))
        results = [None] * 3 if error is not None else [draw(EDGE_FLOATS) for _ in range(3)]
        rows.append(SweepRow(overrides, *results, error=error))
    return rows


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


@np.errstate(over="ignore", invalid="ignore")  # as on ``train``: divergence raises, not warns
def train_per_step_public(split, config):
    """``train`` as its loop was written on the public loss: ``_forward``, a validated
    ``total_loss``, ``embed_gradients`` and a ``flatten``ed gradient per step.
    Returns (embedder, bank, history records)."""
    embedder, bank = init_model(config.model, split.num_known)
    params = bind_parameters(embedder, bank)
    optimizer = (SGD if config.optimizer == "sgd" else Adam)(config.learning_rate, params)
    rng = np.random.default_rng(int(config.seed))
    n = len(split.train)
    records = []
    alpha, beta = config.loss.alpha, config.loss.beta
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = {"classification": 0.0, "margin": 0.0, "overconfidence": 0.0}
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            acts = _forward(embedder.weights, embedder.biases, split.train.inputs[batch])
            out = total_loss(acts[-1], bank, split.train.labels[batch], config.loss)
            egrads = embed_gradients(embedder, acts, out.grad_features)
            grads = flatten(*egrads.weights, *egrads.biases, out.grad_points, out.grad_margins)
            optimizer.step(grads)
            bank.project_margins()
            for key in sums:
                sums[key] += out.parts[key] * len(batch)
        means = {key: sums[key] / n for key in sums}
        total = means["classification"] + alpha * means["margin"] + beta * means["overconfidence"]
        logits = unblocked_logits(embedder, bank, split.test_known.inputs, config.loss)
        val_acc = float((logits.argmax(axis=1) == split.test_known.labels).mean())
        records.append(EpochRecord(epoch, total, means["classification"], means["margin"],
                                   means["overconfidence"], val_acc))
    return embedder, bank, records


def reference_loss(f, points, margins, y, cfg):
    """``total_loss`` in plain numpy, written the straightforward way: ``np.linalg.norm``,
    ``np.clip``, ``.mean()``, ``np.add.at``, and the Euclidean backward's two matmuls each
    computed twice. osrkit's cores compute each piece once; any sum they reorder shows here
    as a bit difference. Returns (classification, margin, overconfidence) and the
    gradients w.r.t. features, points and margins."""
    b, d = f.shape
    rows = np.arange(b)
    tau, gap = cfg.tau, cfg.gap_threshold
    if cfg.classification_metric is Metric.EUCLIDEAN:
        diff = f[:, None, :] - points[None, :, :]
        scores = np.einsum("bkd,bkd->bk", diff, diff) / d - f @ points.T
    else:
        fn, pn = np.linalg.norm(f, axis=1), np.linalg.norm(points, axis=1)
        u, v = f / fn[:, None], points / pn[:, None]
        cos = u @ v.T
        scores = np.clip(cos, -1.0, 1.0)
    z = tau * scores
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    cls = float(-logp[rows, y].mean())
    g_cls = np.exp(logp)
    g_cls[rows, y] -= 1.0
    g_cls /= b
    top = z.argmax(axis=1)
    gaps = z[rows, top][:, None] - z
    on = gaps > gap
    oc = float((gaps - gap)[on].sum() / b) if on.any() else 0.0
    g_oc = -on.astype(np.float64) / b
    g_oc[rows, top] += on.sum(axis=1) / b
    g = tau * (g_cls + cfg.beta * g_oc)
    if cfg.classification_metric is Metric.EUCLIDEAN:
        row, col = g.sum(axis=1)[:, None], g.sum(axis=0)[:, None]
        grad_f = (2.0 / d) * (row * f - g @ points) - g @ points
        grad_p = (2.0 / d) * (col * points - g.T @ f) - g.T @ f
    else:
        grad_f = (g @ v - (g * cos).sum(axis=1)[:, None] * u) / fn[:, None]
        grad_p = (g.T @ u - (g * cos).sum(axis=0)[:, None] * v) / pn[:, None]
    own = points[y]
    diff = f - own
    metric = cfg.margin_metric
    if metric is Metric.EUCLIDEAN:
        dist = (diff * diff).sum(axis=1) / d
    elif metric is Metric.ANGULAR:
        fn, on_n = np.linalg.norm(f, axis=1), np.linalg.norm(own, axis=1)
        dist = np.clip((f * own).sum(axis=1) / (fn * on_n), -1.0, 1.0)
    elif metric is Metric.MANHATTAN:
        dist = np.abs(diff).sum(axis=1)
    else:
        dist = np.abs(diff).max(axis=1)
    slack = dist - margins[y]
    active = slack > 0.0
    mar = float(np.where(active, slack, 0.0).sum() / b)
    g_d = active.astype(np.float64) / b
    gcol = g_d[:, None]
    if metric is Metric.EUCLIDEAN:
        mar_f = gcol * (2.0 / d) * diff
        mar_own = -mar_f
    elif metric is Metric.ANGULAR:
        u, v = f / fn[:, None], own / on_n[:, None]
        c = (u * v).sum(axis=1)[:, None]
        mar_f, mar_own = gcol * (v - c * u) / fn[:, None], gcol * (u - c * v) / on_n[:, None]
    elif metric is Metric.MANHATTAN:
        mar_f, mar_own = gcol * np.sign(diff), -gcol * np.sign(diff)
    else:
        idx = np.abs(diff).argmax(axis=1)
        hot = np.zeros_like(diff)
        hot[rows, idx] = np.sign(diff[rows, idx])
        mar_f, mar_own = gcol * hot, -gcol * hot
    mar_p = np.zeros_like(points)
    np.add.at(mar_p, y, mar_own)
    mar_m = np.zeros(len(margins))
    np.add.at(mar_m, y, -g_d)
    alpha = cfg.alpha
    return (cls, mar, oc), grad_f + alpha * mar_f, grad_p + alpha * mar_p, alpha * mar_m


def reference_forward(weights, biases, x):
    activations, preactivations = [x], []
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = x @ w + b
        preactivations.append(z)
        x = z if i == len(weights) - 1 else np.maximum(z, 0.0)
        activations.append(x)
    return activations, preactivations


@np.errstate(over="ignore", invalid="ignore")  # as on ``train``
def reference_train(split, config):
    """``train`` in plain numpy on ``reference_loss``, with an MLP, backward pass and
    optimizer of its own: it shares no step code with osrkit. Returns the model bytes
    and the history records as tuples.

    The parameters are views of one vector, in ``bind_parameters``' order and offsets: a
    BLAS kernel may round ``x @ w`` by where ``w`` starts in memory. OpenBLAS's Prescott
    kernel does for (1, d) @ (d, 1) with d >= 3 when ``w`` sits 8 bytes off a 16-byte
    boundary, as the bound points of a [4, 1] model do; separate arrays start aligned."""
    embedder, bank = init_model(config.model, split.num_known)
    params = [*embedder.weights, *embedder.biases, bank.points, bank.margins]
    flat = np.concatenate([p.ravel() for p in params])
    params = [part.reshape(p.shape) for part, p in
              zip(np.split(flat, np.cumsum([p.size for p in params])[:-1]), params)]
    n_layers = len(embedder.weights)
    weights, biases = params[:n_layers], params[n_layers : 2 * n_layers]
    points, margins = params[2 * n_layers :]
    update = adam_per_array if config.optimizer == "adam" else sgd_per_array
    state: dict = {}
    loss = config.loss
    rng = np.random.default_rng(int(config.seed))
    inputs, labels = split.train.inputs, split.train.labels.astype(np.int64)
    n, last, t = len(labels), len(weights) - 1, 0
    records = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = [0.0, 0.0, 0.0]
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            acts, pres = reference_forward(weights, biases, inputs[batch])
            parts, delta, grad_p, grad_m = reference_loss(acts[-1], points, margins,
                                                          labels[batch], loss)
            grad_w, grad_b = [None] * len(weights), [None] * len(weights)
            for i in range(last, -1, -1):
                if i != last:
                    delta = delta * (pres[i] > 0.0)
                grad_w[i] = acts[i].T @ delta
                grad_b[i] = delta.sum(axis=0)
                delta = delta @ weights[i].T
            t += 1
            update(params, [*grad_w, *grad_b, grad_p, grad_m], state, config.learning_rate, t)
            np.maximum(margins, 0.0, out=margins)
            sums = [s + part * len(batch) for s, part in zip(sums, parts)]
        cls, mar, oc = (s / n for s in sums)
        val_acc = float("nan")
        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            feats = reference_forward(weights, biases, split.test_known.inputs)[0][-1]
            if loss.classification_metric is Metric.EUCLIDEAN:
                diff = feats[:, None, :] - points[None, :, :]
                scores = (np.einsum("bkd,bkd->bk", diff, diff) / feats.shape[1]
                          - feats @ points.T)
            else:
                u = feats / np.linalg.norm(feats, axis=1)[:, None]
                v = points / np.linalg.norm(points, axis=1)[:, None]
                scores = np.clip(u @ v.T, -1.0, 1.0)
            pred = (loss.tau * scores).argmax(axis=1)
            val_acc = float((pred == split.test_known.labels).mean())
        records.append((epoch, cls + loss.alpha * mar + loss.beta * oc, cls, mar, oc, val_acc))
    return flatten(*params).tobytes(), records


def model_bytes(embedder, bank) -> bytes:
    return flatten(*embedder.weights, *embedder.biases, bank.points, bank.margins).tobytes()


def assert_matches_reference(split, config, embedder, bank, history):
    want_bytes, want_records = reference_train(split, config)
    assert model_bytes(embedder, bank) == want_bytes
    for got, want in zip(history, want_records, strict=True):
        assert np.array(dataclasses.astuple(got)).tobytes() == np.array(want).tobytes()


class TestOptimizers:
    def test_zero_gradients_leave_params(self):
        for make in (SGD, Adam):
            p = np.array([1.0, -2.0, 3.0])
            before = p.copy()
            make(0.1, p).step(np.zeros(3))
            np.testing.assert_array_equal(p, before)

    def test_sgd_definition(self):
        p = np.array([0.0, 2.0])
        SGD(0.1, p).step(np.array([1.0, -3.0]))
        np.testing.assert_allclose(p, [-0.1, 2.3], rtol=0, atol=1e-15)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step has magnitude ~lr regardless of |g|
        p = np.zeros(3)
        Adam(0.01, p).step(np.array([1e-3, 1.0, 1e3]))
        np.testing.assert_allclose(p, -0.01, rtol=0, atol=1e-6)
        assert (p < 0).all()

    def test_shape_mismatch(self):
        for make in (SGD, Adam):
            with pytest.raises(UsageError, match=r"params shape \(2,\) != grad shape \(3,\)"):
                make(0.1, np.zeros(2)).step(np.zeros(3))

    def test_optimizer_step_projects_margins(self):
        emb, bank = init_model(ModelConfig([3, 2], seed=0), 2)
        params = bind_parameters(emb, bank)
        bank.margins[:] = [0.05, 0.0]
        grads = np.zeros_like(params)
        grads[-2:] = 1.0
        SGD(1.0, params).step(grads)
        bank.project_margins()
        # raw update would be [-0.95, -1.0]; projection clamps to zero
        np.testing.assert_array_equal(bank.margins, [0.0, 0.0])
        np.testing.assert_array_equal(params[-2:], [0.0, 0.0])

    def test_views_alias_the_vector(self):
        emb, bank = init_model(ModelConfig([3, 4, 2], seed=0), 3)
        arrays = [a.copy() for a in (*emb.weights, *emb.biases, bank.points, bank.margins)]
        params = bind_parameters(emb, bank)
        np.testing.assert_array_equal(params, np.concatenate([a.ravel() for a in arrays]))
        grads = -np.linspace(0.1, 1.0, params.size)  # every parameter, margins too, rises
        Adam(0.1, params).step(grads)
        bank.project_margins()
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
        opt = Adam(0.01, flat) if kind == "adam" else SGD(0.01, flat)
        oracle = adam_per_array if kind == "adam" else sgd_per_array
        state: dict = {}
        for t in range(1, 5):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4) for shape in shapes]
            oracle(arrays, grads, state, 0.01, t)
            opt.step(flatten(*grads))
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
        acts = _forward(emb0.weights, emb0.biases, split.train.inputs[batch])
        out = total_loss(acts[-1], bank0, split.train.labels[batch], cfg.loss)
        egrads = embed_gradients(emb0, acts, out.grad_features)
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
        for ra, rb in zip(r1[2], r2[2], strict=True):
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
        for r in history:
            expected = r.classification + 0.2 * r.margin + 0.3 * r.overconfidence
            assert r.total == pytest.approx(expected, abs=1e-12)
        assert (bank.margins >= 0).all()

    def test_training_makes_progress_on_benchmark(self):
        split = benchmark_split(seed=0)
        cfg = benchmark_config("full", seed=0)
        _, _, history = train(split, cfg)
        assert history[-1].classification < history[0].classification

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
        evaluated = [i for i, r in enumerate(history) if not np.isnan(r.val_accuracy)]
        assert evaluated == [1, 3, 4]  # every 2nd epoch plus the last

    def test_history_csv(self, tmp_path):
        split = small_split()
        _, _, history = train(split, small_config(epochs=2))
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,total,cls,amc,coc,val_acc"
        assert len(lines) == 3

    def test_history_csv_text(self, tmp_path):
        # an integer epoch, then each float at 17 significant digits: nan, -0 and subnormals too
        path = tmp_path / "history.csv"
        write_history_csv(path, [EpochRecord(0, 1.5, 0.1, -0.0, 1e-300, float("nan")),
                                 EpochRecord(12, 2 / 3, 0.0, 5e-324, 1e17, 0.25)])
        assert path.read_text() == (
            "epoch,total,cls,amc,coc,val_acc\n"
            "0,1.5,0.10000000000000001,-0,1e-300,nan\n"
            "12,0.66666666666666663,0,4.9406564584124654e-324,1e+17,0.25\n"
        )

    @given(HISTORIES)
    @settings(max_examples=100, deadline=None)
    def test_history_csv_bytes_match_the_template_writer(self, tmp_path_factory, history):
        base = tmp_path_factory.getbasetemp()
        write_history_csv(base / "new.csv", history)
        template_history_csv(base / "old.csv", history)
        assert (base / "new.csv").read_bytes() == (base / "old.csv").read_bytes()

    def test_one_init_model_per_run(self, monkeypatch):
        # the gradient buffers are a copy of the initial model, not a second seeded draw
        calls = []
        monkeypatch.setattr(train_module, "init_model",
                            lambda *args: calls.append(args) or init_model(*args))
        train(small_split(), small_config(epochs=1))
        assert len(calls) == 1

    def test_run_state_binds_both_vectors_and_each_step_overwrites_every_gradient(self):
        split = small_split()
        emb, bank = init_model(ModelConfig([5, 8, 4], seed=0), split.num_known)
        run = train_module._Run(emb, bank, LossConfig())
        for (e, b), vector in (((emb, bank), run.params), (run.twin, run.grads)):
            for array in (*e.weights, *e.biases, b.points, b.margins):
                assert np.shares_memory(array, vector)
        # the twin starts as the initial model: harmless only if a step writes every entry
        run.grads[:] = np.nan
        run.step(split.train.inputs[:8], split.train.labels[:8].astype(np.int64))
        assert np.isfinite(run.grads).all()

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
        if out_dim == 1 and cls_metric is Metric.ANGULAR:  # every cosine would be +-1
            with pytest.raises(ConfigError, match="layer_dims ends in 1"):
                train(split, cfg)
            return
        try:
            oracle = train_per_step_public(split, cfg)
        except OsrkitError as exc:  # e.g. a ReLU layer that zeroes a row under angular scores
            with pytest.raises(type(exc)):
                train(split, cfg)
            return
        emb, bank, history = train(split, cfg)
        assert model_bytes(emb, bank) == model_bytes(*oracle[:2])
        for got, want in zip(history, oracle[2], strict=True):
            assert np.array(dataclasses.astuple(got)).tobytes() == \
                np.array(dataclasses.astuple(want)).tobytes()
        assert_matches_reference(split, cfg, emb, bank, history)

    @pytest.mark.parametrize("arm", ["full", "euclidean"])
    def test_standard_recipe_bit_identical_to_the_plain_numpy_reference(self, arm):
        split, cfg = benchmark_split(0), benchmark_config(arm, 0)
        assert_matches_reference(split, cfg, *train(split, cfg))


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

        monkeypatch.setattr(train_module, "_forward", no_step)
        split = small_split()
        split.train.inputs[5, 2] = np.nan
        with pytest.raises(NumericError, match="training inputs contains non-finite"):
            train(split, small_config())

    def test_one_dim_training_inputs_are_a_config_error(self):
        split = small_split()
        split.train.inputs = split.train.inputs[:, 0]
        n = len(split.train.inputs)
        with pytest.raises(ConfigError) as info:
            train(split, small_config())
        assert str(info.value) == f"training inputs must be 2-D, got shape ({n},)"

    def test_empty_test_known_is_an_empty_batch(self, monkeypatch):
        # checked with the other inputs, before any step runs
        split = small_split()
        split.test_known.inputs = split.test_known.inputs[:0]
        split.test_known.labels = split.test_known.labels[:0]
        monkeypatch.setattr(train_module._Run, "step", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(DataError) as info:
            train(split, small_config(epochs=1))
        assert str(info.value) == "empty batch"
        assert train(split, small_config(epochs=0))[2] == []  # no epoch scores it

    def test_input_width_is_the_scoring_entries_rule(self):
        # one message for ``train`` and ``model_logits``: ``model._checked_inputs``
        cfg = small_config()
        cfg.model.layer_dims[0] = 7
        with pytest.raises(ConfigError) as info:
            train(small_split(), cfg)
        assert str(info.value) == "input dim 5 != model input dim 7"

    def test_known_test_label_past_the_last_class_rejected(self, monkeypatch):
        # the epoch accuracy scored it as a miss; checked with the other inputs, before any step
        split = small_split()
        known = copy.copy(split.test_known)
        known.labels = np.where(np.arange(len(known)) == 2, 2, known.labels)
        monkeypatch.setattr(train_module._Run, "step", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(DataError) as info:
            train(dataclasses.replace(split, test_known=known), small_config(epochs=1))
        assert str(info.value) == f"labels out of range [0, 2): min {known.labels.min()}, max 2"

    def test_one_dim_embedding_under_angular_scores_is_a_config_error(self):
        # every cosine in one dimension is +-1: the run would score every sample alike
        cfg = small_config()
        cfg.model.layer_dims[-1] = 1
        with pytest.raises(ConfigError, match="layer_dims ends in 1"):
            train(small_split(), cfg)
        rows = sweep(cfg, [{"classification_metric": m} for m in (Metric.ANGULAR,
                                                                  Metric.EUCLIDEAN)], small_split())
        assert "layer_dims ends in 1" in rows[0].error and rows[1].error is None

    @pytest.mark.parametrize("rows,scale,error,message", [
        (137, 1e200, NumericError, "features row 17 has an infinite norm, angular distance "
                                   "undefined at epoch 0, batch 7"),
        (slice(None), 0.0, DegenerateInputError, "features row 0 has norm <= 1e-12, angular "
                                                 "distance undefined at epoch 0, batch 0"),
    ], ids=["infinite", "zero"])
    def test_norm_failure_names_epoch_and_batch(self, rows, scale, error, message):
        # training row 137 is row 17 of batch 7 in epoch 0's order; all-zero inputs fail at once
        split = benchmark_split(0)
        split.train.inputs[rows] *= scale
        with pytest.raises(error) as info:
            train(split, benchmark_config("full", 0))
        assert str(info.value) == message

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_input_names_epoch_and_batch(self):
        # Euclidean scores: under angular ones the infinite-norm check fires before the loss
        split = small_split()
        split.train.inputs[:, 0] = 1e200
        with pytest.raises(NumericError, match="non-finite loss nan at epoch 0, batch 0"):
            train(split, small_config(classification_metric=Metric.EUCLIDEAN))


# (id, keys) for every named setting: each preset, each variant and each grid cell
TABLE_ENTRIES = [(f"preset-{name}", keys) for name, keys in PRESETS.items()]
TABLE_ENTRIES += [(f"variant-{name}", keys) for name, keys in VARIANTS.items()]
TABLE_ENTRIES += [(f"{grid}-{i}", cell) for grid, cells in GRIDS.items()
                  for i, cell in enumerate(cells)]


class TestPresets:
    def test_desk_preset_values(self):
        cfg = dataclasses.replace(TrainConfig(ModelConfig([4, 2], seed=0)), **PRESETS["desk"])
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (200, 32, 1e-3)
        assert PRESETS == {"desk": {}}

    def test_variant_arms_expressible_via_config_only(self):
        full = dataclasses.replace(LossConfig(), **VARIANTS["full"])
        assert full.classification_metric is Metric.ANGULAR and full.beta > 0
        eucl = dataclasses.replace(LossConfig(), **VARIANTS["euclidean"])
        assert eucl.classification_metric is Metric.EUCLIDEAN and eucl.beta > 0
        uncal = dataclasses.replace(LossConfig(), **VARIANTS["uncalibrated"])
        assert uncal.classification_metric is Metric.ANGULAR and uncal.beta == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="choose from full, euclidean, uncalibrated"):
            named(VARIANTS, "variant", "bogus")

    @pytest.mark.parametrize("base,keys", [
        *(pytest.param(TrainConfig(ModelConfig([4, 2])), k, id=i) for i, k in TABLE_ENTRIES),
        # numpy numbers are numbers: cast and set like the int and float they stand for
        pytest.param(TrainConfig(ModelConfig([8, 32, 8]), epochs=np.int64(5),
                                 learning_rate=np.float32(1e-3)),
                     {"epochs": 3, "learning_rate": 0.5}, id="numpy-typed-fields"),
    ])
    def test_table_entry_sets_exactly_its_fields(self, base, keys):
        if keys:  # each entry is also a --param cell
            params = [f"{name}={key_text(value)}" for name, value in keys.items()]
            assert param_cells(base, params) == [keys]
        cfg = with_keys(base, keys)
        for old, new in ((base, cfg), (base.loss, cfg.loss), (base.model, cfg.model)):
            for f in dataclasses.fields(old):
                if not dataclasses.is_dataclass(getattr(old, f.name)):
                    assert getattr(new, f.name) == keys.get(f.name, getattr(old, f.name)), f.name
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        grid = next(a for a in sub.choices["sweep"]._actions if a.dest == "grid")
        assert grid.choices == [*GRIDS, "custom"]


class TestSweep:
    def test_preset_grids_have_published_row_counts(self):
        assert len(GRIDS["gap-threshold"]) == 5
        assert len(GRIDS["weights"]) == 7
        assert len(GRIDS["margin-metric"]) == 4
        assert [c["gap_threshold"] for c in GRIDS["gap-threshold"]] == [0.0, 0.25, 0.5, 1.0, 2.0]
        assert [(c["alpha"], c["beta"]) for c in GRIDS["weights"]] == [
            (0.05, 0.05), (0.05, 0.1), (0.1, 0.05), (0.1, 0.1), (0.1, 0.5), (0.5, 0.1), (0.5, 0.5)]

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

    @given(sweep_rows())
    @settings(max_examples=100, deadline=None)
    def test_sweep_csv_bytes_match_the_per_row_writer(self, tmp_path_factory, rows):
        base = tmp_path_factory.getbasetemp()
        write_sweep_csv(base / "new.csv", rows)
        per_row_sweep_csv(base / "old.csv", rows)
        assert (base / "new.csv").read_bytes() == (base / "old.csv").read_bytes()

    def test_no_rows_to_write_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="^no sweep rows to write$"):
            write_sweep_csv(tmp_path / "s.csv", [])
        assert not (tmp_path / "s.csv").exists()

    def test_list_value_is_one_csv_field(self, tmp_path):
        cells = [{"layer_dims": [5, 16, 4], "tau": 1.0}, {"layer_dims": [5], "tau": 2.0}]
        rows = sweep(small_config(epochs=1), cells, small_split())
        assert rows[0].error is None and rows[1].error is not None
        path = tmp_path / "s.csv"
        write_sweep_csv(path, rows)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        assert header == ["layer_dims", "tau", "acc", "auroc", "oscr"]
        assert [len(row) for row in body] == [len(header)] * 2
        assert [_cast("layer_dims", [], row[0]) for row in body] == [[5, 16, 4], [5]]

    def test_unknown_parameter_rejected(self):
        split = small_split()
        with pytest.raises(ConfigError):
            sweep(small_config(epochs=1), [{"nonsense": 1}], split)

    @pytest.mark.parametrize("name", ["loss", "model"])
    def test_nested_config_is_no_parameter(self, monkeypatch, name):
        # a whole LossConfig or ModelConfig is no key: it would replace every key it holds
        def no_training(*args):
            raise AssertionError("a cell trained before every cell was checked")

        monkeypatch.setattr(train_module, "train", no_training)
        value = {"loss": LossConfig(tau=2.0), "model": ModelConfig([5, 4])}[name]
        with pytest.raises(ConfigError, match=f"^unknown sweep parameter '{name}'$"):
            sweep(small_config(epochs=1), [{name: value}], small_split())

    def test_malformed_value_rejected_before_training(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a cell trained before every cell was checked")

        monkeypatch.setattr(train_module, "train", no_training)
        for bad in ({"epochs": "abc"}, {"epochs": True}, {"tau": False}):
            (name,) = bad
            with pytest.raises(ConfigError, match=name):
                sweep(small_config(epochs=1), [{name: 1}, bad], small_split())

    def test_cells_setting_different_parameters_rejected_before_training(self, monkeypatch):
        rows = sweep(small_config(epochs=1), [{"tau": 1.0, "alpha": 0.1},
                                              {"alpha": 0.5, "tau": 2.0}], small_split())
        assert [r.error for r in rows] == [None, None]  # key order may differ

        def no_training(*args):
            raise AssertionError("a cell trained before every cell was checked")

        monkeypatch.setattr(train_module, "train", no_training)
        with pytest.raises(UsageError, match="sweep cells set different parameters: alpha / tau"):
            sweep(small_config(epochs=1), [{"tau": 1.0}, {"alpha": 0.5}], small_split())

    def test_seed_reaches_model_and_training(self):
        cfg = with_keys(small_config(seed=0), {"seed": 3})
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
        rows = sweep(base, GRIDS["margin-metric"], split)
        assert [r.overrides["margin_metric"] for r in rows] == [
            Metric.EUCLIDEAN, Metric.ANGULAR, Metric.MANHATTAN, Metric.CHEBYSHEV,
        ]
        assert not any(r.overrides is c for r, c in zip(rows, GRIDS["margin-metric"]))
        assert all(r.error is None for r in rows)
