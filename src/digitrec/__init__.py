"""Handwritten digit recognition from projection features.

Scanned digits are normalized to 32x32 binary rasters, summarized as
76 shadow/centroid/longest-run features, and classified by a small
sigmoid network trained with online backpropagation and momentum.
"""

from .evaluation import (Dataset, EvaluationReport, confusion_matrix,
                         cross_validate, make_folds, make_toy_dataset,
                         sweep_hidden, toy_glyph)
from .features import (FEATURE_COUNT, centroid_features, extract_features,
                       longest_run_features, longest_runs_by_line, octant_of,
                       read_features_csv, shadow_features, write_features_csv)
from .imgproc import (BoundingBox, NoForegroundError, binarize, bilinear_resize,
                      minimal_bounding_box, normalize_image, otsu_threshold)
from .mlp import (MlpModel, TrainingConfig, forward, gradient, init_model,
                  load_model, predict, random_model, save_model, train)
from .pgm import PgmError, read_pgm, write_pgm

__version__ = "0.1.0"

__all__ = [
    "BoundingBox", "Dataset", "EvaluationReport", "FEATURE_COUNT", "MlpModel",
    "NoForegroundError", "PgmError", "TrainingConfig", "__version__",
    "bilinear_resize", "binarize", "centroid_features", "confusion_matrix",
    "cross_validate", "extract_features", "forward", "gradient", "init_model",
    "load_model", "longest_run_features", "longest_runs_by_line", "make_folds",
    "make_toy_dataset", "minimal_bounding_box", "normalize_image", "octant_of",
    "otsu_threshold", "predict", "random_model", "read_features_csv",
    "read_pgm", "save_model", "shadow_features", "sweep_hidden", "toy_glyph",
    "train", "write_features_csv", "write_pgm",
]
