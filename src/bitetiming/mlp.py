"""Time-to-next-bite regressor.

A small fully connected network (48 -> 128 -> 64 -> 1 by default) written
directly against numpy: explicit forward pass, explicit backpropagation,
explicit Adam with its bias corrections folded into the step size. ReLU plus
inverted dropout follow each hidden layer during training, each unit kept or
dropped by one 16-bit draw from the raw bits of the epoch's generator;
inference is deterministic. The loss is mean absolute error with regression
labels capped at ``LABEL_CAP_SECONDS`` before comparison, so the network
never chases arbitrarily distant bites. The cap and Adam's constants
(``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``) are fixed; ``TrainConfig``
holds what a caller may vary. Training runs in float32, which halves the
cost of its matmuls; a trained model holds the exact float64 copies of its
float32 parameters, and inference runs in float64.

Trained models serialize to a single self-describing JSON document carrying
layer dimensions, parameters (each array the base64 of its float64 bytes),
normalization statistics, the feature layout id ``FEATURE_ORDER_ID``, and the
``TrainConfig``, so inference needs nothing else. The document is json's
canonical encoding of that payload behind a checksum of its own bytes, so
loading refuses any re-formatted or edited file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import f8_from_base64, f8_to_base64, read_document
from .errors import DivergenceError, IntegrityError
from .features import (
    FEATURE_DIM,
    FEATURE_ORDER_ID,
    NormalizationStats,
    ablation_indices,
    apply_normalizer,
    feature_dim,
    fit_normalizer,
)
from .pipeline import WindowTable

MODEL_SCHEMA = "bitetiming-model/6"
DEFAULT_HIDDEN_DIMS = (128, 64)
DROPOUT_P = 0.1
LABEL_CAP_SECONDS = 10.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings. Defaults are the deployed values."""

    learning_rate: float = 1e-4
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        # Refuse what a model file cannot hold: each field's type, then its
        # finiteness, then its range. A bool or a numpy scalar is no JSON number.
        for f in fields(self):
            name, v, real = f.name, getattr(self, f.name), f.type == "float"
            if type(v) not in ((int, float) if real else (int,)):
                raise ValueError(f"{name} {v!r} is not {'a number' if real else 'an integer'}")
            try:
                finite = not real or math.isfinite(v)
            except OverflowError:  # an int too large for a float
                raise ValueError(f"{name} does not fit a float") from None
            if not finite:
                raise ValueError(f"{name} {v!r} is not finite")
            if not (v >= 0 if name == "seed" else v > 0):
                floor = "non-negative" if name == "seed" else "positive"
                raise ValueError(f"{name} must be {floor}, got {v}")


@dataclass
class MlpModel:
    """Network parameters plus everything inference needs.

    ``weights[i]`` has shape (layer_dims[i], layer_dims[i + 1]) so the forward
    pass is ``x @ W + b``. ``normalization`` holds the z-score statistics of
    the training fold, fitted on the ablation-selected columns. ``ablation``
    records which slice of the 48-feature layout the network consumes.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_p: float = DROPOUT_P
    normalization: NormalizationStats | None = None
    ablation: str = "imu+mic"
    train_config: TrainConfig | None = None

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


def init_mlp(
    layer_dims: tuple[int, ...],
    seed: int,
    dropout_p: float = DROPOUT_P,
) -> MlpModel:
    """Initialize weights uniformly on +-sqrt(3 / fan_in), biases at zero.

    The bound gives each weight variance 1 / fan_in, keeping hidden
    activations near unit scale for z-scored inputs.
    """
    if len(layer_dims) < 2:
        raise ValueError(f"need at least input and output dims, got {layer_dims}")
    if not 0 <= dropout_p < 1:
        raise ValueError(f"dropout_p must lie in [0, 1), got {dropout_p}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(3.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MlpModel(
        layer_dims=tuple(int(d) for d in layer_dims),
        weights=weights,
        biases=biases,
        dropout_p=dropout_p,
    )


def _forward_cached(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    masks: list[np.ndarray] | None,
):
    """Forward pass keeping the per-layer values backprop needs.

    ``masks`` holds one inverted-dropout mask per hidden layer (already
    scaled by 1 / keep probability), or None for a deterministic pass.
    """
    activations = [x]
    pre_acts = []
    a = x
    n_layers = len(weights)
    for layer in range(n_layers):
        z = a @ weights[layer]
        z += biases[layer]
        pre_acts.append(z)
        if layer < n_layers - 1:
            a = np.maximum(z, 0.0)
            if masks is not None:
                a *= masks[layer]
        else:
            a = z
        activations.append(a)
    return activations[-1][:, 0], activations, pre_acts


def _sample_dropout_masks(
    model: MlpModel, batch: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """One inverted-dropout mask of shape (batch, dim) per hidden layer.

    Each unit takes one 16-bit draw: the raw 64-bit words of ``rng``'s bit
    generator, ceil(n / 4) of them for n units, read as little-endian uint16,
    layer 0's units first, each layer in C order. A unit is kept iff its draw
    is at least round(p * 65536), so p = 0.1 drops 6554 / 65536 of them. Each
    entry is 0 or 1 / (1 - p), in the parameters' dtype.
    """
    dims = model.layer_dims[1:-1]
    n = batch * sum(dims)
    words = rng.bit_generator.random_raw(-(-n // 4))
    draws = words.astype("<u8", copy=False).view("<u2")[:n]
    keep = draws >= round(model.dropout_p * 65536)
    flat = np.multiply(keep, 1.0 / (1.0 - model.dropout_p), dtype=model.weights[0].dtype)
    offsets = np.cumsum([batch * dim for dim in dims])[:-1]
    return [m.reshape(batch, dim) for m, dim in zip(np.split(flat, offsets), dims)]


def loss_and_gradients(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: list[np.ndarray] | None = None,
):
    """Mean-absolute-error loss and its gradients for one batch.

    ``x`` is (batch, input_dim) normalized features, ``y`` (batch,) capped
    labels, both cast to the dtype of the model's parameters, which the pass
    runs in. Returns (loss, weight_grads, bias_grads), the gradients in that
    dtype. The MAE subgradient is sign(residual), 0 at exactly zero residual.
    """
    dtype = model.weights[0].dtype
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(
            f"x must be (batch, {model.input_dim}), got shape {x.shape}"
        )
    if y.shape != (x.shape[0],):
        raise ValueError(f"y must be ({x.shape[0]},), got shape {y.shape}")

    y_hat, activations, pre_acts = _forward_cached(
        model.weights, model.biases, x, masks
    )
    residual = y_hat - y
    loss = float(np.add.reduce(np.abs(residual)) / residual.size)

    batch = x.shape[0]
    d_z = (np.sign(residual) / batch)[:, None]
    weight_grads: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    bias_grads: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        weight_grads[layer] = activations[layer].T @ d_z
        bias_grads[layer] = np.add.reduce(d_z, axis=0)
        if layer > 0:
            w = model.weights[layer]
            # With one output column, d_z @ W.T is an exact outer product.
            d_z = d_z * w[:, 0] if w.shape[1] == 1 else d_z @ w.T
            if masks is not None:
                d_z *= masks[layer - 1]
            d_z *= pre_acts[layer - 1] > 0.0
    return loss, weight_grads, bias_grads


def train(
    windows: WindowTable,
    cfg: TrainConfig,
    ablation: str = "imu+mic",
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS,
) -> tuple[MlpModel, list[float]]:
    """Fit a regressor on the rows of a window table.

    Selects the ablation's feature columns, z-scores them with statistics
    fitted on these rows only, caps labels at ``LABEL_CAP_SECONDS``, and
    runs mini-batch Adam on the MAE loss in float32. Shuffling and dropout
    reseed from ``cfg.seed`` every epoch, so identical inputs give
    bitwise-identical models and loss histories.

    Returns the trained model, its parameters the float64 copies of the
    float32 ones, and the per-epoch mean training MAE.
    """
    if not len(windows):
        raise ValueError("cannot train on an empty window table")
    if windows.features.shape[1] != FEATURE_DIM:
        raise ValueError(
            f"windows carry {windows.features.shape[1]} features, expected {FEATURE_DIM}"
        )
    columns = ablation_indices(ablation)
    raw = windows.features[:, columns]

    stats = fit_normalizer(raw)
    x_all = apply_normalizer(stats, raw).astype(np.float32)
    y_all = np.minimum(windows.time_to_bite, LABEL_CAP_SECONDS).astype(np.float32)

    model = init_mlp((columns.size, *hidden_dims, 1), seed=cfg.seed)
    model.normalization = stats
    model.ablation = ablation
    model.train_config = cfg

    # Parameters live in one flat float32 buffer, the tensors are views of it,
    # and gradients are gathered into the same layout, so Adam is one in-place
    # pass of elementwise ops in the order m, v, update. The update folds both
    # bias corrections into two scalars (Kingma & Ba 2015, sec. 2):
    # p -= step_size * m / (sqrt(v) + eps_hat), with step_size =
    # lr * sqrt(1 - b2**t) / (1 - b1**t) and eps_hat = eps * sqrt(1 - b2**t).
    # They are Python floats, which keep the arithmetic in float32.
    tensors = model.weights + model.biases
    params = np.concatenate([t.ravel() for t in tensors], dtype=np.float32)
    offsets = np.cumsum([t.size for t in tensors])[:-1]
    views = [v.reshape(t.shape) for v, t in zip(np.split(params, offsets), tensors)]
    n_layers = len(model.weights)
    model.weights, model.biases = views[:n_layers], views[n_layers:]
    grads = np.empty_like(params)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    scratch = np.empty_like(params)
    denom = np.empty_like(params)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step = 0

    n_rows = x_all.shape[0]
    loss_history: list[float] = []
    for epoch in range(cfg.epochs):
        epoch_rng = np.random.default_rng([cfg.seed, epoch])
        order = epoch_rng.permutation(n_rows)
        x_epoch, y_epoch = x_all[order], y_all[order]
        epoch_abs_err = 0.0
        for start in range(0, n_rows, cfg.batch_size):
            x = x_epoch[start : start + cfg.batch_size]
            y = y_epoch[start : start + cfg.batch_size]
            masks = _sample_dropout_masks(model, x.shape[0], epoch_rng)
            loss, w_grads, b_grads = loss_and_gradients(model, x, y, masks)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at row {start}"
                )
            epoch_abs_err += loss * x.shape[0]

            step += 1
            np.concatenate([g.ravel() for g in w_grads + b_grads], out=grads)
            adam_m *= b1
            np.multiply(grads, 1 - b1, out=scratch)
            adam_m += scratch
            adam_v *= b2
            np.multiply(grads, grads, out=scratch)
            scratch *= 1 - b2
            adam_v += scratch
            correction = math.sqrt(1 - b2**step)
            step_size = cfg.learning_rate * correction / (1 - b1**step)
            np.multiply(adam_m, step_size, out=scratch)
            np.sqrt(adam_v, out=denom)
            denom += ADAM_EPS * correction  # eps_hat
            scratch /= denom
            params -= scratch
        loss_history.append(epoch_abs_err / n_rows)
    model.weights = [w.astype(np.float64) for w in model.weights]
    model.biases = [b.astype(np.float64) for b in model.biases]
    return model, loss_history


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Predict seconds to the next bite for each row of an (n, 48) matrix.

    Rows are in the canonical feature layout; ablation column selection and
    normalization happen here. Returns an (n,) array.
    """
    if model.normalization is None:
        raise ValueError("model has no normalization statistics; train or load first")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != FEATURE_DIM:
        raise ValueError(
            f"predict expects the full {FEATURE_DIM}-feature layout, "
            f"got shape {x.shape}"
        )
    x = apply_normalizer(model.normalization, x[:, ablation_indices(model.ablation)])
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"features must have {model.input_dim} columns, got shape {x.shape}"
        )
    return _forward_cached(model.weights, model.biases, x, None)[0]


def _model_payload(model: MlpModel) -> dict:
    norm = model.normalization
    return {
        "schema": MODEL_SCHEMA,
        "feature_order_id": FEATURE_ORDER_ID,
        "ablation": model.ablation,
        "layer_dims": list(model.layer_dims),
        "dropout_p": model.dropout_p,
        "weights": [f8_to_base64(w) for w in model.weights],
        "biases": [f8_to_base64(b) for b in model.biases],
        "normalization": None if norm is None else {
            "mean": f8_to_base64(norm.mean), "std": f8_to_base64(norm.std)
        },
        "train_config": (
            asdict(model.train_config) if model.train_config is not None else None
        ),
    }


def _canonical(payload: dict) -> str:
    """A payload as json's C encoder writes it: keys sorted, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write a model as one self-describing JSON document.

    The file is ``{"checksum":"<digest>",`` then the canonical text that
    ``model_digest`` hashes, less its opening brace, then a newline. A model
    that load_model would refuse raises its IntegrityError, and is not written.
    """
    payload = _model_payload(model)
    _checked(payload, "")
    canonical = _canonical(payload)
    text = f'{{"checksum":"{_sha256(canonical)}",{canonical[1:]}\n'
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _array(value, where: str, shape) -> np.ndarray:
    """An owned, writable float64 array of ``shape`` read from its base64, which
    must be the string save_model writes for it, or the digest would not be
    the file's checksum."""
    values = f8_from_base64(value, where, math.prod(shape))
    if f8_to_base64(values) != value:
        raise ValueError(f"{where} is not canonical base64")
    return values.reshape(shape).copy()


def _model_from_doc(doc: dict) -> MlpModel:
    """Build a model from a checksummed document, checking its structure."""
    dims, ablation, dropout_p = doc["layer_dims"], doc["ablation"], doc["dropout_p"]
    if type(dims) is not list or len(dims) < 2 or dims[-1] != 1 or any(
        type(d) is not int or d < 1 for d in dims
    ):
        raise ValueError(f"layer_dims {dims!r} are not positive integers ending in 1")
    if dims[0] != feature_dim(ablation):
        raise ValueError(f"layer_dims {dims} do not start at the input of {ablation!r}")
    if type(dropout_p) not in (int, float) or not 0 <= dropout_p < 1:
        raise ValueError(f"dropout_p {dropout_p!r} is not a number in [0, 1)")
    shapes = list(zip(dims[:-1], dims[1:]))
    weights, biases, norm = doc["weights"], doc["biases"], doc["normalization"]
    if not (type(weights) is type(biases) is list
            and len(weights) == len(biases) == len(shapes)):
        raise ValueError(f"weights and biases are not {len(shapes)} arrays each")
    weights = [_array(w, f"weights[{i}]", s) for i, (w, s) in enumerate(zip(weights, shapes))]
    biases = [_array(b, f"biases[{i}]", s[1:]) for i, (b, s) in enumerate(zip(biases, shapes))]
    if type(norm) is not dict:
        raise ValueError("normalization is not an object with mean and std")
    mean, std = (_array(norm[k], f"normalization {k}", dims[:1]) for k in ("mean", "std"))
    if not (std > 0).all():
        raise ValueError("normalization std must be positive")
    if not all(np.isfinite(a).all() for a in (*weights, *biases, mean, std)):
        raise ValueError("weights, biases and normalization must be finite")
    cfg = doc["train_config"]
    return MlpModel(
        layer_dims=tuple(dims),
        weights=weights,
        biases=biases,
        dropout_p=float(dropout_p),
        normalization=NormalizationStats(mean, std),
        ablation=ablation,
        train_config=None if cfg is None else _train_config_from(cfg),
    )


def _train_config_from(cfg) -> TrainConfig:
    """The TrainConfig a model file stores: an object holding every field."""
    try:
        if type(cfg) is not dict:
            raise ValueError("not an object")
        if missing := sorted({f.name for f in fields(TrainConfig)} - cfg.keys()):
            raise ValueError(f"missing {missing}")
        return TrainConfig(**cfg)
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid train_config: {e}") from None


def load_model(path: str | Path) -> MlpModel:
    """Load a saved model, verifying schema version and integrity.

    Raises:
        SchemaVersionError: the document declares another schema, such as
            ``bitetiming-model/2``.
        IntegrityError: bytes that are not UTF-8 or not JSON, a checksum
            that is not the sha256 of the text after it (a file edited or
            re-formatted since ``save_model`` wrote it), a feature layout
            this build does not produce, a missing field, ``layer_dims``
            that do not fit the ablation, a parameter array that is not a
            string, not canonical base64 or not the byte count of its shape,
            a parameter that is not finite, a normalization std that is not
            positive, or a ``train_config`` that TrainConfig refuses.
    """
    path = Path(path)
    text, doc = read_document(path, MODEL_SCHEMA, IntegrityError)
    stored = doc.get("checksum")
    head = f'{{"checksum":"{stored}",'
    if not text.startswith(head) or _sha256("{" + text[len(head) : -1]) != stored:
        raise IntegrityError(f"{path}: checksum mismatch, file was modified")
    if doc.get("feature_order_id") != FEATURE_ORDER_ID:
        raise IntegrityError(
            f"{path}: model was built for feature layout "
            f"{doc.get('feature_order_id')!r}, this build produces "
            f"{FEATURE_ORDER_ID!r}"
        )
    return _checked(doc, f"{path}: ")


def _checked(doc: dict, where: str) -> MlpModel:
    """_model_from_doc(doc); an error it raises is an IntegrityError after ``where``."""
    try:
        return _model_from_doc(doc)
    except KeyError as e:
        raise IntegrityError(f"{where}missing field {e}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise IntegrityError(f"{where}{e}") from None


def model_digest(model: MlpModel) -> str:
    """Stable content hash of a model's payload, for audits.

    It covers the schema, parameters, normalization and training config,
    and equals the checksum ``save_model`` stores for the model.
    """
    return _sha256(_canonical(_model_payload(model)))
