"""Network initialization, forward/backward passes, training, serialization."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON_LIMITS, mutate_json, same_json, window_table

from bitetiming import mlp
from bitetiming.errors import DivergenceError, IntegrityError, SchemaVersionError
from bitetiming.features import (
    ABLATIONS,
    FEATURE_ORDER_ID,
    ablation_indices,
    apply_normalizer,
    fit_normalizer,
)
from bitetiming.mlp import (
    MODEL_SCHEMA,
    MlpModel,
    TrainConfig,
    _model_from_doc,
    _model_payload,
    _sample_dropout_masks,
    forward,
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


def test_forward_zero_network_outputs_bias():
    model = init_mlp((48, 8, 1), seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 2.75
    rng = np.random.default_rng(0)
    assert forward(model, rng.normal(0.0, 1.0, 48)) == 2.75
    out = forward(model, rng.normal(0.0, 1.0, (5, 48)))
    np.testing.assert_array_equal(out, np.full(5, 2.75))


def test_forward_toy_network_by_hand():
    model = MlpModel(
        layer_dims=(1, 1, 1, 1),
        weights=[np.array([[1.0]]), np.array([[0.5]]), np.array([[3.0]])],
        biases=[np.array([0.0]), np.array([0.0]), np.array([-1.0])],
        dropout_p=0.1,
    )
    # relu(2*1) = 2 -> relu(2*0.5) = 1 -> 1*3 - 1 = 2
    assert forward(model, np.array([2.0])) == 2.0
    # negative pre-activation dies at the first relu
    assert forward(model, np.array([-2.0])) == -1.0


def test_forward_infer_is_deterministic_and_validated():
    model = init_mlp((48, 16, 1), seed=2)
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, 48)
    assert forward(model, x) == forward(model, x)
    with pytest.raises(ValueError):
        forward(model, np.zeros(47))


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


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_eps=0.0)


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0


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
    preds = np.asarray(predict(model, feats))
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
    row = rng.normal(0.0, 1.0, 48)
    tweaked = row.copy()
    tweaked[:18] += 100.0  # imu columns of the first half
    assert predict(model, row) == predict(model, tweaked)


def test_predict_validation():
    model = init_mlp((48, 8, 1), seed=0)
    with pytest.raises(ValueError, match="normalization"):
        predict(model, np.zeros(48))
    rng = np.random.default_rng(11)
    windows = rows_from(rng.normal(0.0, 1.0, (16, 48)), rng.uniform(1.0, 9.0, 16))
    trained, _ = train(windows, TrainConfig(epochs=1, batch_size=8), ablation="imu")
    with pytest.raises(ValueError, match="48"):
        predict(trained, np.zeros(36))


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
    np.testing.assert_array_equal(
        np.asarray(predict(model, x)), np.asarray(predict(loaded, x))
    )
    assert loaded.layer_dims == model.layer_dims
    assert loaded.train_config == model.train_config
    assert model_digest(loaded) == model_digest(model)


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc["schema"] = "bitetiming-model/2"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaVersionError):
        load_model(path)


def resign(doc):
    """Recompute the file checksum the same way the writer defines it."""
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return doc


def test_load_rejects_tampered_payload(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc["weights"][0][0][0] += 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="checksum"):
        load_model(path)


def test_load_rejects_foreign_feature_layout(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc["feature_order_id"] = "half-axis-stat/v2"
    path.write_text(json.dumps(resign(doc)))
    with pytest.raises(IntegrityError, match="feature layout"):
        load_model(path)


def test_load_rejects_a_model_without_its_ablation(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    del doc["ablation"]
    path.write_text(json.dumps(resign(doc)))
    with pytest.raises(IntegrityError, match=f"{path}: missing field 'ablation'"):
        load_model(path)


def test_load_rejects_parameters_that_do_not_fit_layer_dims(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    base = json.loads(path.read_text())

    def rejects(mutate, message):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        path.write_text(json.dumps(resign(doc)))
        with pytest.raises(IntegrityError, match=f"{path}: {message}"):
            load_model(path)

    def drop_a_column(doc):
        doc["weights"][1] = [row[:-1] for row in doc["weights"][1]]

    rejects(drop_a_column, "weight and bias shapes do not match")
    rejects(lambda doc: doc["biases"][0].pop(), "weight and bias shapes do not match")
    rejects(lambda doc: doc.update(ablation="imu"), r"layer_dims \[48, .* do not start")
    rejects(lambda doc: doc["normalization"]["std"].__setitem__(0, "1.5"), "values must")
    rejects(lambda doc: [v.pop() for v in doc["normalization"].values()], "normalization")
    rejects(lambda doc: doc["train_config"].pop("seed"), r"invalid train_config: missing")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", "abc", "seed 'abc' is not an integer"),
        ("seed", None, "seed None is not an integer"),
        ("epochs", True, "epochs True is not an integer"),
        ("batch_size", 2.5, "batch_size 2.5 is not an integer"),
        ("learning_rate", "0.1", "learning_rate '0.1' is not a finite number"),
        ("adam_eps", math.inf, "adam_eps inf is not a finite number"),
        ("seed", -1, "seed must be non-negative, got -1"),
    ],
)
def test_load_rejects_train_config_values_of_the_wrong_type(tmp_path, key, value, message):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    doc["train_config"][key] = value
    path.write_text(json.dumps(resign(doc)))
    with pytest.raises(IntegrityError, match=f"{path}: invalid train_config: {message}"):
        load_model(path)


def set_first(*keys, value):
    """A mutation that sets the first number under doc[keys[0]][keys[1]]..."""

    def mutate(doc):
        node = doc
        for key in keys:
            node = node[key]
        while isinstance(node[0], list):
            node = node[0]
        node[0] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (set_first("normalization", "std", value=0.0), "std must be positive"),
        (set_first("normalization", "std", value=-1.0), "std must be positive"),
        (set_first("normalization", "std", value=math.nan), "std must be positive"),
        (set_first("normalization", "std", value=math.inf), "must be finite"),
        (set_first("normalization", "mean", value=math.inf), "must be finite"),
        (set_first("normalization", "mean", value=math.nan), "must be finite"),
        (set_first("weights", value=math.nan), "must be finite"),
        (set_first("biases", value=-math.inf), "must be finite"),
        (lambda doc: doc.update(normalization=None), "normalization is not an object"),
        (set_first("weights", value=10**400), "int too large to convert to float"),
        (set_first("normalization", "std", value=10**400), "int too large to convert"),
    ],
)
def test_load_rejects_unusable_parameters(tmp_path, mutate, message):
    # json.loads reads NaN and Infinity, so a file can hold them.
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(resign(doc)))
    with pytest.raises(IntegrityError, match=f"{path}: .*{message}"):
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
    path.write_text(path.read_text().replace('"dropout_p": 0.1', f'"dropout_p": {value}', 1))
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: not valid JSON: {message}$"):
        load_model(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_toy_model(), path)
    path.write_bytes(path.read_bytes().replace(b'"schema"', b'"sch\xffema"', 1))
    with pytest.raises(IntegrityError, match=f"^{path}: not UTF-8 text"):
        load_model(path)


# load_model as it stood when it re-encoded every parameter to check the
# checksum, frozen here as the reference for its verdicts.
def reference_load_model(path):
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise IntegrityError(f"{path}: not UTF-8 text: {e.reason}") from None
    except json.JSONDecodeError as e:
        raise IntegrityError(f"{path}: not valid JSON: {e.msg}") from e
    if not isinstance(doc, dict) or "schema" not in doc:
        raise IntegrityError(f"{path}: expected an object with a 'schema' field")
    if doc["schema"] != MODEL_SCHEMA:
        raise SchemaVersionError(
            f"{path}: model schema {doc['schema']!r} is not supported, "
            f"expected {MODEL_SCHEMA!r}"
        )
    if doc.get("checksum") != resign(dict(doc))["checksum"]:
        raise IntegrityError(f"{path}: checksum mismatch, file was modified")
    if doc.get("feature_order_id") != FEATURE_ORDER_ID:
        raise IntegrityError(
            f"{path}: model was built for feature layout "
            f"{doc.get('feature_order_id')!r}, this build produces "
            f"{FEATURE_ORDER_ID!r}"
        )
    try:
        return _model_from_doc(doc)
    except KeyError as e:
        raise IntegrityError(f"{path}: missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise IntegrityError(f"{path}: {e}") from None


def verdict(load, path):
    """The payload a loader returns, or the type and message it raises."""
    try:
        return _model_payload(load(path))
    except Exception as e:
        return type(e), str(e)


def assert_parent_verdict(path):
    got, want = verdict(load_model, path), verdict(reference_load_model, path)
    assert same_json(got, want) if isinstance(want, dict) else got == want
    return got


# The ways a model file is laid out: save_model's own and three json.dumps ones.
LAYOUTS = {
    "save_model": lambda doc: json.dumps(doc, indent=1) + "\n",
    "default": json.dumps,
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "indent=4": lambda doc: json.dumps(doc, indent=4),
}


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("model")
    rng = np.random.default_rng(0)
    windows = rows_from(rng.normal(0.0, 1.0, (20, 48)), rng.uniform(1.0, 9.0, 20))
    model, _ = train(windows, TrainConfig(epochs=1, batch_size=8), hidden_dims=(3,))
    save_model(model, path / "base.json")
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_model_mutations_load_or_name_the_file(model_dir, data):
    # Delete or replace one value anywhere in a model file, down to a single
    # weight, recompute the checksum and write it in one of the layouts. The
    # loader gives the reference's verdict: it either returns a model that
    # saves back to the mutated document and predicts finite values for
    # finite rows, or raises a package ValueError naming the file.
    doc = json.loads((model_dir / "base.json").read_text())
    del doc["checksum"]
    mutate_json(data, doc)
    layout = data.draw(st.sampled_from(sorted(LAYOUTS)), label="layout")
    path = model_dir / "mutated.json"
    path.write_text(LAYOUTS[layout](resign(dict(doc))))
    assert_parent_verdict(path)
    try:
        model = load_model(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
    else:
        assert same_json(_model_payload(model), doc)
        y_hat = np.asarray(predict(model, np.zeros((2, 48))))
        assert y_hat.shape == (2,) and np.isfinite(y_hat).all()


def written_as(number, text):
    """A mutation that sets the first weight to ``number`` and writes it as
    ``text``, a form json.dumps does not produce, keeping the signature."""

    def write(doc):
        set_first("weights", value=number)(doc)
        saved = LAYOUTS["save_model"](resign(doc))
        assert saved.count(repr(number)) == 1
        return saved.replace(repr(number), text)

    return write


def signed(mutate, layout="save_model"):
    """A mutation of the document, re-signed and written in ``layout``."""

    def write(doc):
        mutate(doc)
        return LAYOUTS[layout](resign(doc))

    return write


def decoy_weights(last):
    """The signed file with a second, unsigned "weights" member before or
    after the others; the object keeps the value of the last one."""

    def write(doc):
        members = LAYOUTS["save_model"](resign(doc)).strip()[1:-1]
        decoy = '"weights": [[[9.5]]]'
        return "{" + (f"{members},\n{decoy}" if last else f"{decoy},\n{members}") + "}\n"

    return write


def respaced_string(doc):
    """A string in the weights, signed without the space the file holds."""
    set_first("weights", value="ab")(doc)
    return LAYOUTS["save_model"](resign(doc)).replace('"ab"', '"a b"')


def unsorted_splice(doc):
    """A key after "weights", signed over the members in the file's order,
    weights last: a text json.dumps never writes."""
    doc["zzz"] = 1
    weights = json.dumps(doc.pop("weights"), separators=(",", ":"))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    text = text[:-1] + ',"weights":' + weights + "}"
    doc["weights"] = json.loads(weights)
    doc["checksum"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return LAYOUTS["save_model"](doc)


@pytest.mark.parametrize(
    "write, message",
    [
        (written_as(12.5, "12.50"), None),
        (written_as(1.25e-05, "1.25E-5"), None),
        (lambda doc: LAYOUTS["save_model"](resign(doc)).replace("\n", "\r\n\t"), None),
        (signed(lambda doc: doc.update(zzz=1)), None),
        (signed(lambda doc: doc.update(zzz=1), "compact"), None),
        (signed(lambda doc: doc["normalization"].update(weights=[[1.0]])), None),
        (signed(set_first("weights", value="0.5")), "values must be lists of numbers"),
        (signed(lambda doc: doc.pop("weights")), "missing field 'weights'"),
        (decoy_weights(last=False), None),
        (decoy_weights(last=True), "checksum mismatch"),
        (respaced_string, "checksum mismatch"),
        (unsorted_splice, "checksum mismatch"),
    ],
    ids=[
        "12.50",
        "1.25E-5",
        "crlf-tab",
        "key-after-weights",
        "key-after-weights-compact",
        "weights-in-normalization",
        "string-in-weights",
        "no-weights",
        "duplicate-weights-first",
        "duplicate-weights-last",
        "respaced-string",
        "unsorted-splice",
    ],
)
def test_load_model_gives_the_parent_verdict_on_unusual_files(model_dir, write, message):
    doc = json.loads((model_dir / "base.json").read_text())
    del doc["checksum"]
    path = model_dir / "unusual.json"
    path.write_text(write(doc))
    got = assert_parent_verdict(path)
    if message is None:
        assert isinstance(got, dict)
    else:
        assert got[0] is IntegrityError and got[1].startswith(f"{path}: ")
        assert message in got[1]


def test_an_untouched_model_file_loads_without_re_encoding_its_parameters(
    tmp_path, monkeypatch
):
    model = trained_toy_model()
    path = tmp_path / "model.json"
    save_model(model, path)

    def refuse(payload):
        raise AssertionError("load_model re-encoded the parameters")

    monkeypatch.setattr(mlp, "_payload_checksum", refuse)
    loaded = load_model(path)
    assert loaded.layer_dims == model.layer_dims
    for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
        np.testing.assert_array_equal(a, b)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


@st.composite
def object_texts(draw):
    """A non-empty JSON object's text in a drawn layout. Written by hand, its
    keys may repeat."""
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(["a", "weights", "é", '"q"', ""]) | st.text(max_size=3), json_values),
            min_size=1,
            max_size=5,
        )
    )
    indent = draw(st.sampled_from([None, 0, 1, 4, "\t"]))
    item_sep, key_sep = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\r\n", " :\t")]))
    dump = lambda v: json.dumps(v, indent=indent, separators=(item_sep, key_sep))
    if draw(st.booleans()):
        text = json.dumps(dict(pairs), indent=indent, separators=(item_sep, key_sep),
                          sort_keys=draw(st.booleans()))
    else:
        text = "{" + item_sep.join(dump(k) + key_sep + dump(v) for k, v in pairs) + "}"
    pad = st.sampled_from(["", " ", "\n", " \t\r\n"])
    return draw(pad) + text + draw(pad)


@settings(max_examples=300, deadline=None)
@given(text=object_texts())
def test_member_scanner_matches_json_loads(text):
    doc, spans = mlp._members(text)
    want = json.loads(text)
    assert list(doc) == list(want) and same_json(doc, want)
    assert spans.keys() == doc.keys()
    for key, (start, end) in spans.items():
        assert same_json(json.loads(text[start:end]), doc[key])


@settings(max_examples=200, deadline=None)
@given(value=json_values, tail=st.sampled_from(["", " x", " 1", "{}", ",", "]", "}"]))
@example(value={}, tail="")
@example(value={"a": 1}, tail="")
def test_member_scanner_takes_only_one_non_empty_object(value, tail):
    text = json.dumps(value) + tail
    if isinstance(value, dict) and value and not tail:
        assert mlp._members(text) is not None
    else:
        assert mlp._members(text) is None


@pytest.mark.parametrize(
    "text",
    [
        "",
        " { } ",
        '{"a": 1,}',
        '{"a": 1 ,\n}',
        '{"a" 1}',
        '{1: 2}',
        '{"a": 1}}',
        '\ufeff{"a": 1}',
        '{"a": 1',
        '{"a": ' + "1" * 5000 + "}",
        '{"a": ' + "[" * 10**5 + "]" * 10**5 + "}",
    ],
    ids=lambda text: text if len(text) < 20 else f"{text[:6]}...{len(text)}",
)
def test_member_scanner_hands_other_texts_to_json_loads(text):
    assert mlp._members(text) is None


def test_model_digest_tracks_parameters():
    model = trained_toy_model()
    digest = model_digest(model)
    model.weights[0][0, 0] += 1e-9
    assert model_digest(model) != digest


# The trainer as it stood before its parameters moved into one flat buffer,
# frozen here as the reference for its bits: per-tensor Adam with fresh
# temporaries, a gather per batch, and d_z @ W.T for every layer.
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
    columns = ablation_indices(ablation)
    raw = windows.features[:, columns]
    stats = fit_normalizer(raw)
    x_all = apply_normalizer(stats, raw)
    y_all = np.minimum(windows.time_to_bite, cfg.label_cap_seconds)
    model = init_mlp((columns.size, *hidden_dims, 1), seed=cfg.seed)
    model.normalization = stats
    model.ablation = ablation
    model.train_config = cfg
    adam_m = [np.zeros_like(w) for w in model.weights] + [
        np.zeros_like(b) for b in model.biases
    ]
    adam_v = [np.zeros_like(g) for g in adam_m]
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
            masks = _sample_dropout_masks(model, x.shape[0], epoch_rng)
            loss, w_grads, b_grads = _reference_loss_and_gradients(model, x, y, masks)
            epoch_abs_err += loss * x.shape[0]
            step += 1
            params = model.weights + model.biases
            grads = w_grads + b_grads
            for i, (p, g) in enumerate(zip(params, grads)):
                adam_m[i] = cfg.beta1 * adam_m[i] + (1 - cfg.beta1) * g
                adam_v[i] = cfg.beta2 * adam_v[i] + (1 - cfg.beta2) * (g * g)
                m_hat = adam_m[i] / (1 - cfg.beta1**step)
                v_hat = adam_v[i] / (1 - cfg.beta2**step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        loss_history.append(epoch_abs_err / n_rows)
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

    # One batch through both backprops, with dropout, from the trained model.
    x = apply_normalizer(model.normalization, windows.features[:, ablation_indices(ablation)])
    y = np.minimum(windows.time_to_bite, cfg.label_cap_seconds)
    masks = _sample_dropout_masks(model, n_rows, np.random.default_rng(seed))
    got = loss_and_gradients(model, x, y, masks)
    want = _reference_loss_and_gradients(model, x, y, masks)
    assert got[0] == want[0]
    for g, w in zip(got[1] + got[2], want[1] + want[2]):
        np.testing.assert_array_equal(g, w)
