"""Bite timing for robot-assisted feeding from wearable sensor streams.

The package turns raw IMU and throat-microphone tracks into time-to-next-bite
predictions and proceed/stop commands: resampling and windowing (signals),
statistical features (features), a from-scratch regressor (mlp), threshold
policies and baselines (policy), leave-one-subject-out evaluation
(evaluation), and a deterministic feeding simulator with a synthetic data
generator (sim). File formats and label derivation live in dataio; the
session-to-feature-row plumbing in pipeline.
"""

from .dataio import (
    BiteEvent,
    SessionRecord,
    derive_time_to_bite,
    load_dataset,
    motion_labels_at,
    read_session,
    write_manifest,
    write_session,
)
from .evaluation import (
    AlignmentReport,
    ConfusionCounts,
    LosoEvaluation,
    confusion,
    evaluate_alignment,
    mae_seconds,
    mcc,
    naive_mean_baseline,
    nmcc,
    run_loso,
    sweep_thresholds,
)
from .features import (
    FEATURE_DIM,
    FEATURE_ORDER_ID,
    NormalizationStats,
    apply_normalizer,
    build_feature_vector,
    fit_normalizer,
)
from .mlp import (
    LABEL_CAP_SECONDS,
    MlpModel,
    TrainConfig,
    forward,
    init_mlp,
    load_model,
    predict,
    save_model,
    train,
)
from .pipeline import WindowTable, extract_dataset_windows, extract_labeled_windows
from .policy import (
    COMMIT_DISTANCE_M,
    AssertivenessThreshold,
    Command,
    decide,
    make_policy,
    map_assertiveness,
)
from .signals import UniformSeries, WindowGrid, resample_linear, slice_windows
from .sim import (
    OracleLabeler,
    RobotState,
    SessionLog,
    TrajectoryConfig,
    generate_dataset,
    generate_synthetic_session,
    run_session,
    step_robot,
    synthesize_scenario,
)

__version__ = "0.1.0"
