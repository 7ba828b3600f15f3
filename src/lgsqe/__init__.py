"""Per-sample quality scores for generated images.

A binary real-vs-generated classifier is trained over Saab-transform
features selected by a discriminant feature test; its soft output is the
per-sample quality index (closer to 0 means more realistic), and aggregating
scores yields model-level metrics where accuracy near 0.5 signals a strong
generator.
"""

from .datasets import (
    ImageSet,
    LabeledSplit,
    load_cifar_bin,
    load_idx,
    load_images,
    load_raw_tensor,
    make_labeled_split,
    save_raw_tensor,
)
from .dft import DftRanking, FeatureSelection, dft_loss, rank_features, select_features
from .errors import FormatError, GeometryError, LengthError, LgsqeError, VersionError
from .evaluate import (
    ConfusionCounts,
    EvaluationReport,
    accuracy,
    aggregate_report,
    confusion,
    filter_samples,
    pr_auc,
    precision,
    recall,
    roc_auc,
    score_histogram,
)
from .gbdt import BoostedEnsemble, GbdtParams, fit_ensemble
from .pipeline import PipelineModel, RunConfig, derive_seed, fit_pipeline
from .saab import (
    PatchMatrix,
    SaabModel,
    abs_max_pool,
    apply_saab,
    build_representation,
    extract_patches,
    fit_cw_saab,
    fit_representation,
    fit_saab,
)
from .synthetic import gaussian_degrade, stroke_images

__version__ = "0.1.0"
