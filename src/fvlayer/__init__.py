"""Differentiable Fisher-vector encoding with end-to-end training.

A point-set encoder built on a diagonal Gaussian mixture, with analytic
backward passes through the encoding, its normalization, the mixture
reparameterization, and a trainable input layer, plus an SDCA-trained
linear SVM that supplies the training signal.
"""

from .gmm import (
    GmmParams,
    RawGmmParams,
    VARIANCE_FLOOR,
    em_fit,
    kmeans_init,
    posteriors,
    raw_from_params,
    reparam_backward,
    reparam_forward,
)
from .fisher import (
    SufficientStats,
    fv_backward,
    fv_backward_input,
    fv_backward_params,
    fv_forward,
    fv_length,
)
from .normalization import norm_backward, norm_forward
from .feature_layer import (
    FeatureLayerParams,
    invert_features,
    layer_backward,
    layer_forward,
    xavier_init,
)
from .svm import (
    SvmModel,
    average_precision,
    backward_signal,
    decision_scores,
    sdca_train,
)
from .data_io import (
    Dataset,
    DatasetItem,
    PcaModel,
    load_dataset,
    make_synthetic_2d,
    pca_apply,
    pca_fit,
    read_checkpoint,
    read_features,
    save_dataset,
    subsample,
    write_checkpoint,
    write_features,
)
from .pipeline import (
    Encoder,
    EvalReport,
    TrainConfig,
    TrainMode,
    TrainState,
    evaluate_checkpoint,
    shift_demo,
    train,
)

__version__ = "0.1.0"
