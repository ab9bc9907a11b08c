"""Bite timing for robot-assisted feeding from wearable sensor streams.

The package turns raw IMU and throat-microphone tracks into time-to-next-bite
predictions and proceed/stop commands: resampling and windowing (signals),
statistical features (features), a from-scratch regressor (mlp), threshold
policies and baselines (policy), leave-one-subject-out evaluation
(evaluation), and a deterministic feeding simulator with a synthetic data
generator (sim). File formats and label derivation live in dataio; the
session-to-feature-row plumbing in pipeline. The package re-exports nothing:
import from the submodules, e.g. ``from bitetiming.mlp import predict``.
"""

__version__ = "0.1.0"
