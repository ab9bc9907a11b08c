"""Network initialization, forward/backward passes, training, serialization."""

import dataclasses
import json
import math
import re
import string

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    JSON_LIMITS, b64, mutate_json, same_json, unb64, window_table, write_old_model, write_signed_model
)

from bitetiming.errors import DivergenceError, IntegrityError, SchemaVersionError
from bitetiming.features import (
    ABLATIONS,
    NormalizationStats,
    ablation_indices,
    apply_normalizer,
    fit_normalizer,
)
from bitetiming.mlp import (
    DROPOUT_P,
    MlpModel,
    TrainConfig,
    _model_payload,
    _forward_cached,
    _sample_dropout_masks,
    init_mlp,
    load_model,
    loss_and_gradients,
    model_digest,
    predict,
    save_model,
    train,
)


def rows_from(features, labels, participant="p01"):
    return window_table(features, labels, participant)


def test_init_determinism_and_seeding():
    a = init_mlp((48, 128, 64, 1), seed=0)
    b = init_mlp((48, 128, 64, 1), seed=0)
    c = init_mlp((48, 128, 64, 1), seed=1)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(np.any(wa != wc) for wa, wc in zip(a.weights, c.weights))


def test_init_shapes_bound_and_biases():
    model = init_mlp((48, 128, 64, 1), seed=5)
    assert [w.shape for w in model.weights] == [(48, 128), (128, 64), (64, 1)]
    assert [b.shape for b in model.biases] == [(128,), (64,), (1,)]
    for fan_in, w in zip((48, 128, 64), model.weights):
        assert np.max(np.abs(w)) <= np.sqrt(3.0 / fan_in)
    for b in model.biases:
        np.testing.assert_array_equal(b, np.zeros_like(b))


def test_init_validation():
    with pytest.raises(ValueError):
        init_mlp((48,), seed=0)
    with pytest.raises(ValueError):
        init_mlp((48, 1), seed=0, dropout_p=1.0)


def identity_normalized(model, dim=48):
    model.normalization = NormalizationStats(mean=np.zeros(dim), std=np.ones(dim))
    return model


def with_dtype(model, dtype):
    """A copy of the model with its weights and biases cast to ``dtype``."""
    return dataclasses.replace(
        model,
        weights=[w.astype(dtype) for w in model.weights],
        biases=[b.astype(dtype) for b in model.biases],
    )


def test_forward_zero_network_outputs_bias():
    model = identity_normalized(init_mlp((48, 8, 1), seed=0))
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 2.75
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(predict(model, rng.normal(0.0, 1.0, (1, 48))), [2.75])
    out = predict(model, rng.normal(0.0, 1.0, (5, 48)))
    np.testing.assert_array_equal(out, np.full(5, 2.75))


def test_forward_toy_network_by_hand():
    model = MlpModel(
        layer_dims=(1, 1, 1, 1),
        weights=[np.array([[1.0]]), np.array([[0.5]]), np.array([[3.0]])],
        biases=[np.array([0.0]), np.array([0.0]), np.array([-1.0])],
        dropout_p=0.1,
    )
    y_hat = _forward_cached(model.weights, model.biases, np.array([[2.0], [-2.0]]), None)[0]
    # relu(2*1) = 2 -> relu(2*0.5) = 1 -> 1*3 - 1 = 2; a negative
    # pre-activation dies at the first relu, leaving the last bias.
    np.testing.assert_array_equal(y_hat, [2.0, -1.0])


def test_forward_infer_is_deterministic_and_validated():
    model = identity_normalized(init_mlp((48, 16, 1), seed=2))
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, (1, 48))
    np.testing.assert_array_equal(predict(model, x), predict(model, x))
    with pytest.raises(ValueError):
        predict(model, np.zeros((1, 47)))


def test_loss_and_gradients_applies_dropout_masks():
    model = init_mlp((48, 64, 64, 1), seed=2)
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 1.0, (8, 48))
    y = rng.uniform(0.0, 10.0, 8)

    def masked(seed):
        masks = _sample_dropout_masks(model, 8, np.random.default_rng(seed))
        loss, w_grads, _ = loss_and_gradients(model, x, y, masks)
        return loss, np.concatenate([g.ravel() for g in w_grads])

    loss_a, grads_a = masked(1)
    loss_b, grads_b = masked(1)
    loss_c, grads_c = masked(2)
    assert loss_a == loss_b
    np.testing.assert_array_equal(grads_a, grads_b)
    assert loss_a != loss_c and np.any(grads_a != grads_c)
    assert loss_a != loss_and_gradients(model, x, y)[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden_dims=st.lists(st.integers(1, 200), min_size=1, max_size=3).map(tuple),
    batch=st.integers(1, 300),
    dropout_p=st.sampled_from((0.0, 0.05, DROPOUT_P, 0.5, 0.9)),
    dtype=st.sampled_from((np.float32, np.float64)),
)
@example(seed=0, hidden_dims=(128, 64), batch=128, dropout_p=DROPOUT_P, dtype=np.float32)
def test_dropout_masks_take_one_16_bit_draw_per_unit(seed, hidden_dims, batch, dropout_p, dtype):
    model = with_dtype(init_mlp((4, *hidden_dims, 1), seed=0, dropout_p=dropout_p), dtype)
    rng = np.random.default_rng(seed)
    masks = _sample_dropout_masks(model, batch, rng)
    assert [m.shape for m in masks] == [(batch, dim) for dim in hidden_dims]
    kept = dtype(1 / (1 - dropout_p))
    for m in masks:
        assert m.dtype == dtype
        assert np.all((m == 0) | (m == kept))
    # It takes ceil(n / 4) words of the bit generator, no more and no fewer.
    n = batch * sum(hidden_dims)
    twin = np.random.default_rng(seed)
    twin.bit_generator.random_raw(math.ceil(n / 4))
    assert rng.bit_generator.random_raw(3).tolist() == twin.bit_generator.random_raw(3).tolist()

    # Over at least 10**5 units the drop fraction is round(p * 65536) / 65536
    # within 5 sigma (6554 / 65536 at the deployed p = 0.1).
    big = _sample_dropout_masks(model, math.ceil(10**5 / sum(hidden_dims)), rng)
    units = sum(m.size for m in big)
    dropped = sum(int(np.count_nonzero(m == 0)) for m in big)
    q = round(dropout_p * 65536) / 65536
    assert abs(dropped / units - q) <= 5 * math.sqrt(q * (1 - q) / units)


def test_loss_value_and_zero_residual_subgradient():
    model = init_mlp((4, 3, 1), seed=1)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 4.0
    x = np.random.default_rng(5).normal(0.0, 1.0, (6, 4))
    loss, w_grads, b_grads = loss_and_gradients(model, x, np.full(6, 4.0))
    assert loss == 0.0
    for g in w_grads + b_grads:
        np.testing.assert_array_equal(g, np.zeros_like(g))
    loss, _, b_grads = loss_and_gradients(model, x, np.full(6, 1.5))
    assert loss == 2.5
    assert b_grads[-1][0] == pytest.approx(1.0, rel=1e-12)  # sum of sign(+2.5)/n


def test_loss_and_gradients_shape_validation():
    model = init_mlp((4, 3, 1), seed=1)
    with pytest.raises(ValueError):
        loss_and_gradients(model, np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        loss_and_gradients(model, np.zeros((2, 4)), np.zeros(3))


def forward_by_hand(weights, biases, x):
    """Independent forward pass returning predictions and pre-activations."""
    a = x
    pre = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
    return a[:, 0], pre


def test_backprop_matches_central_differences():
    rng = np.random.default_rng(42)
    model = init_mlp((48, 16, 8, 1), seed=3, dropout_p=0.0)
    h = 1e-5
    checked = 0
    for _ in range(8):
        x = rng.normal(0.0, 1.0, (1, 48))
        y = np.array([rng.uniform(0.0, 10.0)])
        _, w_grads, b_grads = loss_and_gradients(model, x, y)
        for _ in range(10):
            layer = int(rng.integers(0, len(model.weights)))
            is_weight = rng.random() < 0.85
            arr = model.weights[layer] if is_weight else model.biases[layer]
            grad = w_grads[layer] if is_weight else b_grads[layer]
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            yp, pre_p = forward_by_hand(model.weights, model.biases, x)
            arr[idx] = orig - h
            ym, pre_m = forward_by_hand(model.weights, model.biases, x)
            arr[idx] = orig
            crossed = any(
                np.any((zp > 0) != (zm > 0))
                for zp, zm in zip(pre_p[:-1], pre_m[:-1])
            ) or np.sign(yp[0] - y[0]) != np.sign(ym[0] - y[0])
            if crossed:
                continue
            numeric = (abs(yp[0] - y[0]) - abs(ym[0] - y[0])) / (2 * h)
            analytic = grad[idx]
            assert abs(numeric - analytic) <= 1e-6 * max(abs(numeric), abs(analytic), 1e-7)
            checked += 1
    assert checked >= 60


def test_loss_and_gradients_compute_in_the_parameters_dtype():
    model = init_mlp((48, 8, 4, 1), seed=1)
    x = np.random.default_rng(2).normal(0.0, 1.0, (5, 48))
    masks = {}
    for dtype in (np.float64, np.float32):
        net = with_dtype(model, dtype)
        masks[dtype] = _sample_dropout_masks(net, 5, np.random.default_rng(3))
        _, w_grads, b_grads = loss_and_gradients(net, x, np.full(5, 3.0), masks[dtype])
        assert [m.dtype for m in masks[dtype]] == [dtype] * 2
        assert [g.dtype for g in w_grads + b_grads] == [dtype] * 6
    # One 16-bit draw per unit either way, so the same units drop.
    for m32, m64 in zip(masks[np.float32], masks[np.float64]):
        np.testing.assert_array_equal(m32, m64.astype(np.float32))


def gates(net, x, y):
    """Each row's ReLU gates and the sign of its residual."""
    y_hat, _, pre_acts = _forward_cached(net.weights, net.biases, x.astype(net.weights[0].dtype), None)
    return np.hstack([z > 0 for z in pre_acts[:-1]] + [np.sign(y_hat - y)[:, None]])


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden_dims=st.lists(st.integers(1, 32), min_size=1, max_size=2).map(tuple),
    batch=st.integers(1, 32),
)
def test_float32_gradients_are_the_float64_ones_within_rounding(seed, hidden_dims, batch):
    # Parameters and inputs that float32 holds exactly, so the two passes
    # differ only by float32 rounding. A sum of k products rounds by at most
    # k * 2**-24 of the sum of their magnitudes, and those magnitudes are what
    # a network of |W| and |b| computes at |x| with every unit open; no sum
    # here, chained through the layers, has more terms than every fan-in and
    # fan-out plus the batch. Rows where a ReLU gate or the residual's sign
    # differs between the passes are left out, as the gradient check does.
    rng = np.random.default_rng(seed)
    model = init_mlp((48, *hidden_dims, 1), seed=seed)
    model.biases = [rng.normal(0.0, 0.5, b.shape) for b in model.biases]
    net32 = with_dtype(model, np.float32)
    net64 = with_dtype(net32, np.float64)
    x = rng.normal(0.0, 1.0, (batch, 48)).astype(np.float32).astype(np.float64)
    y = rng.uniform(0.0, 10.0, batch).astype(np.float32).astype(np.float64)
    same = (gates(net32, x, y) == gates(net64, x, y)).all(axis=1)
    assume(same.any())
    x, y = x[same], y[same]
    magnitudes = dataclasses.replace(
        net64, weights=[np.abs(w) for w in net64.weights], biases=[np.abs(b) for b in net64.biases]
    )
    loss32, w32, bias32 = loss_and_gradients(net32, x, y)
    loss64, w64, bias64 = loss_and_gradients(net64, x, y)
    loss_mag, w_mag, bias_mag = loss_and_gradients(magnitudes, np.abs(x), -y)
    bound = (2 * sum(model.layer_dims) + x.shape[0]) * 2.0**-24
    assert abs(loss32 - loss64) <= bound * loss_mag
    for g32, g64, mag in zip(w32 + bias32, w64 + bias64, w_mag + bias_mag):
        assert np.all(np.abs(g32.astype(np.float64) - g64) <= bound * mag)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0


# JSON values a train_config field might hold: counts at, below and far above
# the floor (an int past every float too), bools, the non-finite and zero
# floats, strings and null; and the values each field may take.
JSON_CONFIG_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 2.5]),
    st.text(max_size=3),
    st.none(),
)
VALID_CONFIG_VALUES = {
    "learning_rate": st.floats(min_value=5e-324, max_value=1e308) | st.integers(1, 10**400),
    "batch_size": st.integers(1, 10**400),
    "epochs": st.integers(1, 10**400),
    "seed": st.integers(0, 10**400),
}


@settings(max_examples=300, deadline=None)
@given(
    cfg=st.fixed_dictionaries(VALID_CONFIG_VALUES),
    junk=st.dictionaries(st.sampled_from(list(VALID_CONFIG_VALUES)), JSON_CONFIG_VALUES),
)
def test_train_config_refuses_what_the_model_file_refuses(tmp_path_factory, cfg, junk):
    # TrainConfig and load_model agree on every JSON train_config, in one
    # message; a config TrainConfig builds saves and loads back unchanged.
    # Any other exception than these fails the test.
    cfg |= junk
    model = trained_toy_model()
    path = tmp_path_factory.mktemp("cfg") / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["train_config"] = cfg
    write_signed_model(path, doc)
    try:
        config, refused = TrainConfig(**cfg), None
    except ValueError as e:
        config, refused = None, str(e)
    try:
        load_model(path)
        assert refused is None
    except IntegrityError as e:
        assert str(e) == f"{path}: invalid train_config: {refused}"
    if config is not None:
        model.train_config = config
        save_model(model, path)
        loaded = dataclasses.asdict(load_model(path).train_config)
        assert {k: (type(v), v) for k, v in loaded.items()} == {
            k: (type(v), v) for k, v in cfg.items()
        }


@pytest.mark.parametrize(
    "name, value",
    [
        ("learning_rate", np.float64(1e-4)),
        ("learning_rate", np.float32(1e-4)),
        ("learning_rate", np.int64(1)),
        ("batch_size", np.int64(8)),
        ("epochs", np.int64(2)),
        ("seed", np.int64(0)),
    ],
    ids=lambda v: v if type(v) is str else type(v).__name__,
)
def test_train_config_refuses_numpy_scalars(name, value):
    # A model file cannot hold one: refused when built, not when saved.
    kind = "a number" if name == "learning_rate" else "an integer"
    with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(value))} is not {kind}$"):
        TrainConfig(**{name: value})


def test_every_property_test_prints_its_reproduction_blob():
    # conftest loads a profile that does, so a rare failure comes with its
    # @reproduce_failure line.
    assert settings.default.print_blob is True


def test_train_requires_rows_and_full_layout():
    with pytest.raises(ValueError):
        train([], TrainConfig(epochs=1))
    bad = rows_from(np.zeros((4, 36)), np.full(4, 2.0))
    with pytest.raises(ValueError):
        train(bad, TrainConfig(epochs=1))


def test_train_is_bitwise_deterministic():
    rng = np.random.default_rng(6)
    windows = rows_from(rng.normal(0.0, 1.0, (40, 48)), rng.uniform(1.0, 9.0, 40))
    cfg = TrainConfig(epochs=5, batch_size=16, seed=11)
    model_a, losses_a = train(windows, cfg)
    model_b, losses_b = train(windows, cfg)
    assert losses_a == losses_b
    assert model_digest(model_a) == model_digest(model_b)
    model_c, _ = train(windows, TrainConfig(epochs=5, batch_size=16, seed=12))
    assert model_digest(model_a) != model_digest(model_c)


def test_trained_parameters_are_float32_values_held_as_float64():
    model = trained_toy_model()
    for p in model.weights + model.biases:
        assert p.dtype == np.float64 and p.flags.owndata
        np.testing.assert_array_equal(p.astype("<f4").astype("<f8"), p)


def test_train_caps_labels_at_ten_seconds():
    rng = np.random.default_rng(7)
    feats = rng.normal(0.0, 1.0, (24, 48))
    cfg = TrainConfig(epochs=4, batch_size=8, seed=0)
    capped_high = np.concatenate([np.full(12, 12.0), np.full(12, 14.0)])
    already_capped = np.full(24, 10.0)
    _, losses_high = train(rows_from(feats, capped_high), cfg)
    _, losses_capped = train(rows_from(feats, already_capped), cfg)
    assert losses_high == losses_capped


def test_train_fits_a_constant_label():
    """MAE is minimized by the constant; the bias path can carry it."""
    rng = np.random.default_rng(5)
    feats = np.tile(rng.normal(0.0, 1.0, 48), (8, 1))
    windows = rows_from(feats, np.full(8, 4.0))
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=500, seed=1)
    model, losses = train(windows, cfg)
    preds = predict(model, feats)
    np.testing.assert_allclose(preds, 4.0, atol=0.1)
    assert losses[-1] < 0.05


def test_train_loss_descends_on_a_learnable_set():
    rng = np.random.default_rng(9)
    feats = rng.normal(0.0, 1.0, (256, 48))
    w_true = rng.normal(0.0, 0.3, 48)
    labels = np.clip(5.0 + feats @ w_true, 0.5, 9.5)
    cfg = TrainConfig(learning_rate=3e-3, batch_size=256, epochs=40, seed=2)
    _, losses = train(rows_from(feats, labels), cfg)
    hist = np.array(losses)
    moving = np.convolve(hist, np.ones(10) / 10.0, mode="valid")
    assert np.all(np.diff(moving) <= 0.0)
    assert hist[-1] < 0.5 * hist[0]


def test_train_raises_on_divergence():
    windows = rows_from(np.full((8, 48), np.nan), np.full(8, 4.0))
    with pytest.raises(DivergenceError, match="epoch 0"):
        train(windows, TrainConfig(epochs=1, batch_size=8))


def test_train_records_ablation_and_input_dim():
    rng = np.random.default_rng(8)
    windows = rows_from(rng.normal(0.0, 1.0, (16, 48)), rng.uniform(1.0, 9.0, 16))
    cfg = TrainConfig(epochs=2, batch_size=8)
    for ablation, dim in (("imu+mic", 48), ("imu", 36), ("mic", 12)):
        model, _ = train(windows, cfg, ablation=ablation)
        assert model.input_dim == dim
        assert model.ablation == ablation
        assert model.normalization.mean.shape == (dim,)
        assert model.train_config == cfg


def test_predict_uses_only_the_ablation_columns():
    rng = np.random.default_rng(10)
    windows = rows_from(rng.normal(0.0, 1.0, (16, 48)), rng.uniform(1.0, 9.0, 16))
    model, _ = train(windows, TrainConfig(epochs=2, batch_size=8), ablation="mic")
    row = rng.normal(0.0, 1.0, (1, 48))
    tweaked = row.copy()
    tweaked[:, :18] += 100.0  # imu columns of the first half
    np.testing.assert_array_equal(predict(model, row), predict(model, tweaked))


def test_predict_validation():
    model = init_mlp((48, 8, 1), seed=0)
    with pytest.raises(ValueError, match="normalization"):
        predict(model, np.zeros((1, 48)))
    rng = np.random.default_rng(11)
    windows = rows_from(rng.normal(0.0, 1.0, (16, 48)), rng.uniform(1.0, 9.0, 16))
    trained, _ = train(windows, TrainConfig(epochs=1, batch_size=8), ablation="imu")
    with pytest.raises(ValueError, match="48"):
        predict(trained, np.zeros((1, 36)))
    # Anything but a matrix of rows, one bare row included: the package's
    # error, not an IndexError.
    for features in (np.float64(1.0), np.zeros(48), np.zeros((2, 48, 48))):
        with pytest.raises(ValueError, match=re.escape(f"48-feature layout, got shape {np.shape(features)}")):
            predict(trained, features)
    # A network whose input width is not its ablation's.
    mismatched = identity_normalized(init_mlp((48, 4, 1), seed=0), dim=12)
    mismatched.ablation = "mic"
    with pytest.raises(ValueError, match=re.escape("features must have 48 columns, got shape (1, 12)")):
        predict(mismatched, np.zeros((1, 48)))


def trained_toy_model(seed=0):
    rng = np.random.default_rng(seed)
    windows = rows_from(rng.normal(0.0, 1.0, (20, 48)), rng.uniform(1.0, 9.0, 20))
    model, _ = train(windows, TrainConfig(epochs=2, batch_size=8, seed=seed))
    return model


def test_save_load_round_trip_bitwise(tmp_path):
    model = trained_toy_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, (100, 48))
    np.testing.assert_array_equal(predict(model, x), predict(loaded, x))
    assert loaded.layer_dims == model.layer_dims
    assert loaded.train_config == model.train_config
    assert model_digest(loaded) == model_digest(model)


# Signed zeros, the smallest and largest subnormals and the largest finite
# magnitudes: the values a decimal round trip is most likely to get wrong.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100, deadline=None)
@given(
    params=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=55, max_size=55),
    std=st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=12, max_size=12),
)
@example(params=(EDGE_FLOATS * 10)[:55], std=[5e-324, 2.2250738585072009e-308, 1.7976931348623157e308] * 4)
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, params, std):
    # A 12-3-1 model's weights, biases and normalization mean, then its
    # positive std, read back byte for byte, whatever finite values they hold.
    model = init_mlp((12, 3, 1), seed=0)
    model.ablation = "mic"
    w0, w1, b0, b1, mean = np.split(np.array(params), [36, 39, 42, 43])
    model.weights, model.biases = [w0.reshape(12, 3), w1.reshape(3, 1)], [b0, b1]
    model.normalization = NormalizationStats(mean=mean, std=np.array(std))
    path = tmp_path_factory.mktemp("round") / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for a, b in [
        *zip(model.weights + model.biases, loaded.weights + loaded.biases),
        (model.normalization.mean, loaded.normalization.mean),
        (model.normalization.std, loaded.normalization.std),
    ]:
        assert b.shape == a.shape and b.tobytes() == a.tobytes()
        assert b.flags.writeable and b.flags.owndata and b.flags.c_contiguous
    assert path.read_text().startswith(f'{{"checksum":"{model_digest(loaded)}",')


def test_saved_text_is_the_digest_then_the_canonical_payload(tmp_path):
    model = trained_toy_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    canonical = json.dumps(_model_payload(model), sort_keys=True, separators=(",", ":"))
    want = f'{{"checksum":"{model_digest(model)}",' + canonical[1:] + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def untrained():
    return init_mlp((48, 4, 1), 0)


def with_nan_weight():
    model = trained_toy_model()
    model.weights[0][0, 0] = np.nan
    return model


@pytest.mark.parametrize(
    "make, message",
    [
        (untrained, "normalization is not an object with mean and std"),
        (with_nan_weight, "weights, biases and normalization must be finite"),
    ],
    ids=["untrained", "nan-weight"],
)
def test_save_model_refuses_what_load_model_refuses(tmp_path, make, message):
    # Each was once written, then refused on loading. The writer raises the
    # loader's message, less the path, and writes no file.
    path = tmp_path / "model.json"
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        save_model(make(), path)
    assert not path.exists()


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc["schema"] = "bitetiming-model/7"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaVersionError):
        load_model(path)


def test_load_refuses_a_version_1_file(tmp_path):
    # Written as save_model wrote /1 to /5 files; the schema is checked first.
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    for version in (1, 2, 3, 4, 5):
        write_old_model(path, doc, version)
        message = (
            f"{path}: schema 'bitetiming-model/{version}' is not supported, "
            "expected 'bitetiming-model/6'"
        )
        with pytest.raises(SchemaVersionError, match=f"^{re.escape(message)}$"):
            load_model(path)


def test_load_rejects_tampered_payload(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    text = path.read_text()
    weights = json.loads(text)["weights"][0]
    flipped = ("B" if weights[0] == "A" else "A") + weights[1:]
    path.write_text(text.replace(weights, flipped))
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: checksum mismatch"):
        load_model(path)


def test_load_rejects_foreign_feature_layout(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc["feature_order_id"] = "half-axis-stat/v2"
    write_signed_model(path, doc)
    with pytest.raises(IntegrityError, match="feature layout"):
        load_model(path)


def test_load_rejects_a_model_without_its_ablation(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    del doc["ablation"]
    write_signed_model(path, doc)
    with pytest.raises(IntegrityError, match=f"{path}: missing field 'ablation'"):
        load_model(path)


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_load_rejects_a_second_weights_member(tmp_path, last):
    # json.loads keeps the last of two equal keys; either way the file is
    # not the text its checksum signs.
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    members = path.read_text()[1:-2]
    decoy = '"weights":[[[9.5]]]'
    path.write_text("{" + (f"{members},{decoy}" if last else f"{decoy},{members}") + "}\n")
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: checksum mismatch"):
        load_model(path)


def edit_array(*keys, edit):
    """A mutation that decodes the array at doc[keys[0]][keys[1]]..., applies
    ``edit`` to its values as a flat list, and stores them encoded again."""

    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        values = unb64(node[keys[-1]])
        edit(values)
        node[keys[-1]] = b64(values)

    return mutate


def set_first(*keys, value):
    """A mutation that sets the first value of the array at doc[keys[0]]..."""
    return edit_array(*keys, edit=lambda values: values.__setitem__(0, value))


def test_load_rejects_parameters_that_do_not_fit_layer_dims(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    base = json.loads(path.read_text())

    def rejects(mutate, message):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        write_signed_model(path, doc)
        with pytest.raises(IntegrityError, match=f"{path}: {message}"):
            load_model(path)

    def drop_a_column(doc):
        w = np.reshape(unb64(doc["weights"][1]), (128, 64))
        doc["weights"][1] = b64(w[:, :-1])

    rejects(drop_a_column, r"weights\[1\] holds 64512 bytes, not 8 x 8192")
    rejects(edit_array("biases", 0, edit=list.pop), r"biases\[0\] holds 1016 bytes, not 8 x 128")
    rejects(lambda doc: doc["biases"].pop(), "weights and biases are not 3 arrays each")
    rejects(lambda doc: doc.update(weights=doc["weights"][0]), "weights and biases are not 3")
    rejects(lambda doc: doc.update(ablation="imu"), r"layer_dims \[48, .* do not start")
    rejects(edit_array("normalization", "mean", edit=list.pop), "normalization mean holds 376 bytes")
    rejects(lambda doc: doc["train_config"].pop("seed"), r"invalid train_config: missing")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["weights"].__setitem__(0, "0.5"), "weights[0] is not valid base64"),
        (lambda doc: doc.pop("weights"), "missing field 'weights'"),
    ],
    ids=["string-in-weights", "no-weights"],
)
def test_load_model_gives_the_parent_verdict_on_unusual_files(model_dir, mutate, message):
    # Signed files that earlier loaders refused for their weights; the /3
    # loader refuses them too. A numeric string is not base64.
    doc = json.loads((model_dir / "base.json").read_text())
    mutate(doc)
    path = model_dir / "unusual.json"
    write_signed_model(path, doc)
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        load_model(path)

@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", "abc", "seed 'abc' is not an integer"),
        ("seed", None, "seed None is not an integer"),
        ("epochs", True, "epochs True is not an integer"),
        ("batch_size", 2.5, "batch_size 2.5 is not an integer"),
        ("learning_rate", "0.1", "learning_rate '0.1' is not a number"),
        ("learning_rate", math.inf, "learning_rate inf is not finite"),
        ("learning_rate", math.nan, "learning_rate nan is not finite"),
        pytest.param(
            "learning_rate", 10**400, "learning_rate does not fit a float", id="learning_rate-10**400"
        ),
        ("seed", -1, "seed must be non-negative, got -1"),
    ],
)
def test_load_rejects_train_config_values_of_the_wrong_type(tmp_path, key, value, message):
    # TrainConfig refuses the value when built, in the loader's words.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{key: value})
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc["train_config"][key] = value
    write_signed_model(path, doc)
    with pytest.raises(IntegrityError, match=f"{path}: invalid train_config: {message}"):
        load_model(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (set_first("normalization", "std", value=0.0), "std must be positive"),
        (set_first("normalization", "std", value=-1.0), "std must be positive"),
        (set_first("normalization", "std", value=math.nan), "std must be positive"),
        (set_first("normalization", "std", value=math.inf), "must be finite"),
        (set_first("normalization", "mean", value=math.inf), "must be finite"),
        (set_first("normalization", "mean", value=math.nan), "must be finite"),
        (set_first("weights", 0, value=math.nan), "must be finite"),
        (set_first("biases", 0, value=-math.inf), "must be finite"),
        (lambda doc: doc.update(normalization=None), "normalization is not an object"),
    ],
)
def test_load_rejects_unusable_parameters(tmp_path, mutate, message):
    # float64 bytes can hold NaN and infinities, so a file can hold them.
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    write_signed_model(path, doc)
    with pytest.raises(IntegrityError, match=f"{path}: .*{message}"):
        load_model(path)


@pytest.mark.parametrize(
    "keys, value, message",
    [
        pytest.param(("weights", 0), [[0.5]], "weights[0] is not a string", id="list"),
        pytest.param(("normalization", "std"), 1.5, "normalization std is not a string", id="number"),
        pytest.param(("biases", 2), None, "biases[2] is not a string", id="null"),
        pytest.param(
            ("weights", 1), "AAAA!AAA", "weights[1] is not valid base64: Only base64 data is allowed",
            id="alphabet",
        ),
        pytest.param(("biases", 0), "abc", "biases[0] is not valid base64: Incorrect padding", id="padding"),
        pytest.param(
            ("normalization", "mean"), "\u00e9AAA",
            "normalization mean is not valid base64: string argument should contain only ASCII characters",
            id="non-ascii",
        ),
        pytest.param(("biases", 2), b64([1.0])[:-4] + "AA==", "biases[2] holds 7 bytes, not 8 x 1", id="partial"),
        pytest.param(("biases", 2), b64([1.0, 2.0]), "biases[2] holds 16 bytes, not 8 x 1", id="extra"),
        pytest.param(("weights", 2), "", "weights[2] holds 0 bytes, not 8 x 64", id="empty"),
        pytest.param(
            ("biases", 2), "AAAAAAAAAAB=", "biases[2] is not canonical base64", id="unused-bits"
        ),
    ],
)
def test_load_names_a_parameter_that_is_not_float64_base64(tmp_path, keys, value, message):
    # One case or more for each way a parameter array can fail to be the
    # base64 of its shape's float64 bytes, each signed so that the array,
    # not the checksum, is what the loader refuses.
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc[keys[0]][keys[1]] = value
    write_signed_model(path, doc)
    with pytest.raises(IntegrityError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_model(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{broken")
    with pytest.raises(IntegrityError):
        load_model(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(IntegrityError):
        load_model(path)


@pytest.mark.parametrize("value, message", JSON_LIMITS)
def test_load_names_the_file_of_a_huge_integer_or_deep_nesting(tmp_path, value, message):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    text = path.read_text()
    assert text.count('"dropout_p":0.1') == 1
    path.write_text(text.replace('"dropout_p":0.1', f'"dropout_p":{value}'))
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: invalid JSON: {message}$"):
        load_model(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    path.write_bytes(path.read_bytes().replace(b'"schema"', b'"sch\xffema"', 1))
    message = f"{path}:1: not UTF-8 text: invalid start byte"
    with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
        load_model(path)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("model")
    rng = np.random.default_rng(0)
    windows = rows_from(rng.normal(0.0, 1.0, (20, 48)), rng.uniform(1.0, 9.0, 20))
    model, _ = train(windows, TrainConfig(epochs=1, batch_size=8), hidden_dims=(3,))
    save_model(model, path / "base.json")
    return path


def assert_loads_or_names_the_file(path):
    """The model load_model returns, or None after checking that it raised a
    package ValueError naming the file."""
    try:
        return load_model(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_model_mutations_load_or_name_the_file(model_dir, data):
    # Delete or replace one value anywhere in a model file, down to a single
    # weight, and sign it again. The loader either returns a model that
    # saves back to the mutated document and predicts finite values for
    # finite rows, or raises a package ValueError naming the file.
    doc = json.loads((model_dir / "base.json").read_text())
    del doc["checksum"]
    mutate_json(data, doc)
    path = model_dir / "mutated.json"
    write_signed_model(path, doc)
    model = assert_loads_or_names_the_file(path)
    if model is not None:
        assert same_json(_model_payload(model), doc)
        y_hat = predict(model, np.zeros((2, 48)))
        assert y_hat.shape == (2,) and np.isfinite(y_hat).all()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_model_byte_edits_load_the_same_model_or_name_the_file(model_dir, data):
    # Replace, delete or insert one byte anywhere in a saved file, unsigned.
    # Only the final newline may change: every other edit is refused.
    raw = (model_dir / "base.json").read_bytes()
    edit = data.draw(st.sampled_from(["replace", "delete", "insert"]), label="edit")
    at = data.draw(st.integers(0, len(raw) - (edit != "insert")), label="at")
    byte = bytes([data.draw(st.integers(0, 255), label="byte")])
    rest = raw[at:] if edit == "insert" else raw[at + 1 :]
    edited = raw[:at] + (b"" if edit == "delete" else byte) + rest
    path = model_dir / "edited.json"
    path.write_bytes(edited)
    model = assert_loads_or_names_the_file(path)
    if model is not None:
        assert edited[:-1] == raw[:-1]
        assert model_digest(model) == model_digest(load_model(model_dir / "base.json"))


BASE64_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


@settings(max_examples=200, deadline=None)
@given(
    array=st.sampled_from(
        [("weights", 0), ("weights", 1), ("biases", 0), ("biases", 1), ("normalization", "mean"),
         ("normalization", "std")]
    ),
    at=st.integers(0, 2**16),
    flip=st.integers(1, 63),
)
@example(array=("biases", 1), at=10, flip=1)
def test_every_model_load_accepts_has_its_checksum_as_digest(model_dir, array, at, flip):
    # Change one base64 digit of one parameter array and sign the file again.
    # biases[1] holds one float64 in 12 characters, and the last before its
    # "=" carries two unused bits: flipping one decodes to the same bytes.
    doc = json.loads((model_dir / "base.json").read_text())
    text = doc[array[0]][array[1]]
    at %= len(text.rstrip("="))
    digit = BASE64_ALPHABET[BASE64_ALPHABET.index(text[at]) ^ flip]
    doc[array[0]][array[1]] = text[:at] + digit + text[at + 1 :]
    path = model_dir / "digit.json"
    write_signed_model(path, doc)
    model = assert_loads_or_names_the_file(path)
    if model is not None:
        assert model_digest(model) == json.loads(path.read_text())["checksum"]


def test_model_digest_tracks_parameters():
    model = trained_toy_model()
    digest = model_digest(model)
    model.weights[0][0, 0] += 1e-9
    assert model_digest(model) != digest


# The trainer written per tensor, as the reference for its bits: per-tensor
# Adam with fresh temporaries and its bias corrections folded into a step
# size and an epsilon, a gather per batch, d_z @ W.T for every layer, and
# dropout masks cut layer by layer from the uint16 values of the raw words,
# all in float32 from the rounded float64 draws of init_mlp.
def _reference_masks(model, batch, rng):
    dims = model.layer_dims[1:-1]
    n = batch * sum(dims)
    raw = rng.bit_generator.random_raw(math.ceil(n / 4))
    draws = np.frombuffer(raw.astype("<u8").tobytes(), dtype="<u2")
    keep_from = round(model.dropout_p * 65536)
    kept = 1 / (1 - model.dropout_p)
    masks = []
    start = 0
    for dim in dims:
        block = draws[start : start + batch * dim].reshape(batch, dim)
        masks.append(np.where(block >= keep_from, kept, 0.0).astype(model.weights[0].dtype))
        start += batch * dim
    return masks


def _reference_forward_cached(weights, biases, x, masks):
    activations = [x]
    pre_acts = []
    a = x
    n_layers = len(weights)
    for layer in range(n_layers):
        z = a @ weights[layer] + biases[layer]
        pre_acts.append(z)
        if layer < n_layers - 1:
            a = np.maximum(z, 0.0)
            if masks is not None:
                a = a * masks[layer]
        else:
            a = z
        activations.append(a)
    return activations[-1][:, 0], activations, pre_acts


def _reference_loss_and_gradients(model, x, y, masks=None):
    y_hat, activations, pre_acts = _reference_forward_cached(
        model.weights, model.biases, x, masks
    )
    residual = y_hat - y
    loss = float(np.mean(np.abs(residual)))
    batch = x.shape[0]
    d_z = (np.sign(residual) / batch)[:, None]
    weight_grads = [np.empty(0)] * len(model.weights)
    bias_grads = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        weight_grads[layer] = activations[layer].T @ d_z
        bias_grads[layer] = d_z.sum(axis=0)
        if layer > 0:
            d_a = d_z @ model.weights[layer].T
            if masks is not None:
                d_a = d_a * masks[layer - 1]
            d_z = d_a * (pre_acts[layer - 1] > 0.0)
    return loss, weight_grads, bias_grads


def _reference_train(windows, cfg, ablation, hidden_dims):
    # The label cap (10 s) and Adam's constants are the deployed values,
    # written out rather than read from mlp.
    columns = ablation_indices(ablation)
    raw = windows.features[:, columns]
    stats = fit_normalizer(raw)
    x_all = apply_normalizer(stats, raw).astype(np.float32)
    y_all = np.minimum(windows.time_to_bite, 10.0).astype(np.float32)
    model = with_dtype(init_mlp((columns.size, *hidden_dims, 1), seed=cfg.seed), np.float32)
    model.normalization = stats
    model.ablation = ablation
    model.train_config = cfg
    adam_m = [np.zeros_like(w) for w in model.weights] + [
        np.zeros_like(b) for b in model.biases
    ]
    adam_v = [np.zeros_like(g) for g in adam_m]
    b1, b2 = 0.9, 0.999
    step = 0
    n_rows = x_all.shape[0]
    loss_history = []
    for epoch in range(cfg.epochs):
        epoch_rng = np.random.default_rng([cfg.seed, epoch])
        order = epoch_rng.permutation(n_rows)
        epoch_abs_err = 0.0
        for start in range(0, n_rows, cfg.batch_size):
            batch_idx = order[start : start + cfg.batch_size]
            x = x_all[batch_idx]
            y = y_all[batch_idx]
            masks = _reference_masks(model, x.shape[0], epoch_rng)
            loss, w_grads, b_grads = _reference_loss_and_gradients(model, x, y, masks)
            epoch_abs_err += loss * x.shape[0]
            step += 1
            params = model.weights + model.biases
            grads = w_grads + b_grads
            step_size = cfg.learning_rate * math.sqrt(1 - b2**step) / (1 - b1**step)
            eps_hat = 1e-8 * math.sqrt(1 - b2**step)
            for i, (p, g) in enumerate(zip(params, grads)):
                adam_m[i] = b1 * adam_m[i] + (1 - b1) * g
                adam_v[i] = b2 * adam_v[i] + (1 - b2) * (g * g)
                p -= step_size * adam_m[i] / (np.sqrt(adam_v[i]) + eps_hat)
        loss_history.append(epoch_abs_err / n_rows)
    model.weights = [w.astype(np.float64) for w in model.weights]
    model.biases = [b.astype(np.float64) for b in model.biases]
    return model, loss_history


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ablation=st.sampled_from(ABLATIONS),
    hidden_dims=st.lists(st.integers(1, 12), min_size=1, max_size=2).map(tuple),
    batch_size=st.integers(2, 12),
    full_batches=st.integers(1, 3),
    data=st.data(),
    epochs=st.integers(1, 3),
)
def test_train_matches_the_reference_bit_for_bit(
    seed, ablation, hidden_dims, batch_size, full_batches, data, epochs
):
    # The last batch is always partial, down to a single row.
    last = data.draw(st.integers(1, batch_size - 1), label="last_batch_rows")
    n_rows = batch_size * full_batches + last
    rng = np.random.default_rng(seed)
    windows = rows_from(rng.normal(0.0, 1.0, (n_rows, 48)), rng.uniform(0.0, 14.0, n_rows))
    cfg = TrainConfig(
        learning_rate=1e-2, batch_size=batch_size, epochs=epochs, seed=seed
    )
    model, losses = train(windows, cfg, ablation, hidden_dims)
    ref_model, ref_losses = _reference_train(windows, cfg, ablation, hidden_dims)
    assert losses == ref_losses
    assert model_digest(model) == model_digest(ref_model)

    # One batch through both backprops, with dropout, from the trained model
    # in float64 and from a float32 copy of it.
    x = apply_normalizer(model.normalization, windows.features[:, ablation_indices(ablation)])
    y = np.minimum(windows.time_to_bite, 10.0)
    for net, dtype in ((model, np.float64), (with_dtype(model, np.float32), np.float32)):
        masks = _sample_dropout_masks(net, n_rows, np.random.default_rng(seed))
        got = loss_and_gradients(net, x, y, masks)
        want = _reference_loss_and_gradients(net, x.astype(dtype), y.astype(dtype), masks)
        assert got[0] == want[0]
        for g, w in zip(got[1] + got[2], want[1] + want[2]):
            np.testing.assert_array_equal(g, w)
