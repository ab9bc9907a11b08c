"""Train the time-to-bite regressor and round-trip it through disk.

Generates a small synthetic dataset, fits the 48-128-64-1 MLP with MAE loss
and Adam, shows the loss trajectory, and verifies that a saved model predicts
bit-identically after loading.
"""

import tempfile
from pathlib import Path

import numpy as np

from bitetiming.dataio import load_dataset
from bitetiming.mlp import TrainConfig, load_model, predict, save_model, train
from bitetiming.pipeline import extract_dataset_windows
from bitetiming.sim import generate_dataset


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate_dataset(Path(tmp) / "data", 4, 120.0, seed=5)
        sessions = load_dataset(manifest)
        windows = extract_dataset_windows(sessions)
        print(f"dataset: {len(sessions)} sessions, {len(windows)} labeled rows")

        cfg = TrainConfig(seed=0, epochs=60)
        model, losses = train(windows, cfg)
        marks = [0, 1, 4, 14, 29, len(losses) - 1]
        print("train MAE by epoch:")
        for e in marks:
            print(f"  epoch {e:>3}: {losses[e]:.3f} s")

        x = windows.features
        y = np.minimum(windows.time_to_bite, 10.0)
        y_hat = predict(model, x)
        print(f"final fit on the training rows: "
              f"MAE {np.mean(np.abs(y_hat - y)):.3f} s, "
              f"predictions span {y_hat.min():.2f} .. {y_hat.max():.2f} s")

        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        same = np.array_equal(np.asarray(predict(loaded, x)), np.asarray(y_hat))
        print(f"saved {path.name} ({path.stat().st_size} bytes), "
              f"reloaded predictions bit-identical: {same}")


if __name__ == "__main__":
    main()
