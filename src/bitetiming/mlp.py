"""Time-to-next-bite regressor.

A small fully connected network (48 -> 128 -> 64 -> 1 by default) written
directly against numpy: explicit forward pass, explicit backpropagation,
explicit Adam. ReLU plus inverted dropout follow each hidden layer during
training; inference is deterministic. The loss is mean absolute error with
regression labels capped at ``LABEL_CAP_SECONDS`` before comparison, so the
network never chases arbitrarily distant bites.

Trained models serialize to a single self-describing JSON document carrying
layer dimensions, parameters, normalization statistics, the feature layout
id, and the training configuration, so inference needs nothing else.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import float_rows
from .errors import DivergenceError, IntegrityError, SchemaVersionError
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

MODEL_SCHEMA = "bitetiming-model/1"
DEFAULT_HIDDEN_DIMS = (128, 64)
DROPOUT_P = 0.1
LABEL_CAP_SECONDS = 10.0


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings. Defaults are the deployed values."""

    learning_rate: float = 1e-4
    batch_size: int = 128
    epochs: int = 100
    label_cap_seconds: float = LABEL_CAP_SECONDS
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("learning_rate", "batch_size", "epochs", "label_cap_seconds"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(
                f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}"
            )
        if self.adam_eps <= 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")


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
    feature_order_id: str = FEATURE_ORDER_ID
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


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray | float:
    """Run the deterministic (dropout-free) pass on already-normalized features.

    Args:
        features: shape (input_dim,) or (batch, input_dim).

    Returns a scalar for a single row, else a (batch,) vector.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(
            f"features must have {model.input_dim} columns, got shape {x.shape}"
        )
    y_hat, _, _ = _forward_cached(model.weights, model.biases, x, None)
    return float(y_hat[0]) if single else y_hat


def _sample_dropout_masks(
    model: MlpModel, batch: int, rng: np.random.Generator
) -> list[np.ndarray]:
    keep = 1.0 - model.dropout_p
    return [
        (rng.random((batch, dim)) >= model.dropout_p) / keep
        for dim in model.layer_dims[1:-1]
    ]


def loss_and_gradients(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: list[np.ndarray] | None = None,
):
    """Mean-absolute-error loss and its gradients for one batch.

    ``x`` is (batch, input_dim) normalized features, ``y`` (batch,) capped
    labels. Returns (loss, weight_grads, bias_grads). The MAE subgradient is
    sign(residual), taken as 0 at exactly zero residual.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
    loss = float(np.mean(np.abs(residual)))

    batch = x.shape[0]
    d_z = (np.sign(residual) / batch)[:, None]
    weight_grads: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    bias_grads: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        weight_grads[layer] = activations[layer].T @ d_z
        bias_grads[layer] = d_z.sum(axis=0)
        if layer > 0:
            d_a = d_z @ model.weights[layer].T
            if masks is not None:
                d_a = d_a * masks[layer - 1]
            d_z = d_a * (pre_acts[layer - 1] > 0.0)
    return loss, weight_grads, bias_grads


def train(
    windows: WindowTable,
    cfg: TrainConfig,
    ablation: str = "imu+mic",
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS,
) -> tuple[MlpModel, list[float]]:
    """Fit a regressor on the rows of a window table.

    Selects the ablation's feature columns, z-scores them with statistics
    fitted on these rows only, caps labels at ``cfg.label_cap_seconds``, and
    runs mini-batch Adam on the MAE loss. Shuffling and dropout reseed from
    ``cfg.seed`` every epoch, so identical inputs give bitwise-identical
    models and loss histories.

    Returns the trained model and the per-epoch mean training MAE.
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
    loss_history: list[float] = []
    for epoch in range(cfg.epochs):
        epoch_rng = np.random.default_rng([cfg.seed, epoch])
        order = epoch_rng.permutation(n_rows)
        epoch_abs_err = 0.0
        for start in range(0, n_rows, cfg.batch_size):
            batch_idx = order[start : start + cfg.batch_size]
            x = x_all[batch_idx]
            y = y_all[batch_idx]
            masks = (
                _sample_dropout_masks(model, x.shape[0], epoch_rng)
                if model.dropout_p > 0.0
                else None
            )
            loss, w_grads, b_grads = loss_and_gradients(model, x, y, masks)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at row {start}"
                )
            epoch_abs_err += loss * x.shape[0]

            step += 1
            params = model.weights + model.biases
            grads = w_grads + b_grads
            lr_t = cfg.learning_rate
            for i, (p, g) in enumerate(zip(params, grads)):
                adam_m[i] = cfg.beta1 * adam_m[i] + (1 - cfg.beta1) * g
                adam_v[i] = cfg.beta2 * adam_v[i] + (1 - cfg.beta2) * (g * g)
                m_hat = adam_m[i] / (1 - cfg.beta1**step)
                v_hat = adam_v[i] / (1 - cfg.beta2**step)
                p -= lr_t * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        loss_history.append(epoch_abs_err / n_rows)
    return model, loss_history


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray | float:
    """Predict seconds to the next bite from raw 48-feature rows.

    Accepts a single (48,) vector or an (n, 48) matrix in the canonical
    feature layout; ablation column selection and normalization happen here.
    """
    if model.normalization is None:
        raise ValueError("model has no normalization statistics; train or load first")
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != FEATURE_DIM:
        raise ValueError(
            f"predict expects the full {FEATURE_DIM}-feature layout, "
            f"got shape {x.shape}"
        )
    x = apply_normalizer(model.normalization, x[:, ablation_indices(model.ablation)])
    out = forward(model, x)
    return float(out[0]) if single else out


def _model_payload(model: MlpModel) -> dict:
    return {
        "schema": MODEL_SCHEMA,
        "feature_order_id": model.feature_order_id,
        "ablation": model.ablation,
        "layer_dims": list(model.layer_dims),
        "dropout_p": model.dropout_p,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "normalization": (
            model.normalization.to_dict() if model.normalization is not None else None
        ),
        "train_config": (
            asdict(model.train_config) if model.train_config is not None else None
        ),
    }


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write a model as one self-describing JSON document."""
    payload = _model_payload(model)
    payload["checksum"] = _payload_checksum(
        {k: v for k, v in payload.items() if k != "checksum"}
    )
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


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
    weights = [float_rows(w) for w in doc["weights"]]
    biases = [float_rows([b])[0] for b in doc["biases"]]
    shapes = list(zip(dims[:-1], dims[1:]))
    if [w.shape for w in weights] != shapes or [b.shape for b in biases] != [
        (fan_out,) for _, fan_out in shapes
    ]:
        raise ValueError(f"weight and bias shapes do not match layer_dims {dims}")
    if type(doc["normalization"]) is not dict:
        raise ValueError("normalization is not an object with mean and std")
    norm = NormalizationStats.from_dict(doc["normalization"])
    if norm.mean.shape != (dims[0],):
        raise ValueError(f"normalization does not have {dims[0]} features")
    if not (norm.std > 0).all():
        raise ValueError("normalization std must be positive")
    if not all(np.isfinite(a).all() for a in (*weights, *biases, norm.mean, norm.std)):
        raise ValueError("weights, biases and normalization must be finite")
    cfg = doc["train_config"]
    return MlpModel(
        layer_dims=tuple(dims),
        weights=weights,
        biases=biases,
        dropout_p=float(dropout_p),
        normalization=norm,
        feature_order_id=doc["feature_order_id"],
        ablation=ablation,
        train_config=None if cfg is None else _train_config_from(cfg),
    )


def _train_config_from(cfg) -> TrainConfig:
    """The TrainConfig a model file stores: every field, each of its JSON type."""
    if type(cfg) is not dict:
        raise ValueError("invalid train_config: not an object")
    for f in fields(TrainConfig):
        v = cfg.get(f.name, 0)  # a missing field is named below
        if type(v) is not int and not (
            f.type == "float" and type(v) is float and math.isfinite(v)
        ):
            kind = "an integer" if f.type == "int" else "a finite number"
            raise ValueError(f"invalid train_config: {f.name} {v!r} is not {kind}")
    try:
        config = TrainConfig(**cfg)
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid train_config: {e}") from None
    if asdict(config).keys() != cfg.keys():
        raise ValueError(
            f"invalid train_config: missing {sorted(asdict(config).keys() - cfg.keys())}"
        )
    return config


def load_model(path: str | Path) -> MlpModel:
    """Load a saved model, verifying schema version and integrity.

    Raises:
        SchemaVersionError: the document declares an unknown schema.
        IntegrityError: checksum mismatch (tampered or corrupted file), a
            feature layout this build does not produce, a missing field,
            parameters that do not fit ``layer_dims`` and the ablation, a
            non-finite parameter, a normalization std that is not positive,
            or a ``train_config`` value of the wrong JSON type.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise IntegrityError(f"{path}: not valid JSON: {e.msg}") from e
    if not isinstance(doc, dict) or "schema" not in doc:
        raise IntegrityError(f"{path}: expected an object with a 'schema' field")
    if doc["schema"] != MODEL_SCHEMA:
        raise SchemaVersionError(
            f"{path}: model schema {doc['schema']!r} is not supported, "
            f"expected {MODEL_SCHEMA!r}"
        )
    stored_checksum = doc.get("checksum")
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    if stored_checksum != _payload_checksum(payload):
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


def model_digest(model: MlpModel) -> str:
    """Stable content hash of parameters plus normalization, for audits."""
    return _payload_checksum(_model_payload(model))
