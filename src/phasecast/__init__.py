"""phasecast: multivariate time-series forecasting with interleaved offset
embeddings, Gaussian-RBF KAN layers, and variate-token attention, built on a
self-contained reverse-mode autodiff core.
"""

__version__ = "0.1.0"

from .tensor import (  # noqa: F401
    NonFiniteError,
    Parameter,
    ShapeError,
    Tensor,
    as_tensor,
    attention,
    matmul,
    multihead_attention,
    no_grad,
    softmax,
)
from .layers import (  # noqa: F401
    Conv1dBlock,
    GaussianKanLayer,
    LayerNorm,
    Linear,
    MlpBlock,
    MultiHeadAttention,
)
from .revin import RevIN, RevinState  # noqa: F401
from .offsets import OffsetConfigError, merge_offsets, split_offsets  # noqa: F401
from .model import Forecaster, ModelConfig, VARIANTS  # noqa: F401
from .training import (  # noqa: F401
    Adam,
    GradCheckReport,
    TrainReport,
    TrainSchedule,
    directional_grad_check,
    evaluate_mse,
    grad_check,
    grad_check_model,
    mse_loss,
    predict,
    train_model,
)
from .data import (  # noqa: F401
    Dataset,
    DatasetSpec,
    StandardScaler,
    WindowSample,
    load_csv,
    make_windows,
    prepare_windows,
    split_bounds,
    stack_windows,
)
from .metrics import forecast_metrics, repeat_last, window_mean  # noqa: F401
from .synthetic import linear_trend, sine_mixture, write_series_csv  # noqa: F401
from .errors import ConfigError, DataError  # noqa: F401
from .experiment import ExperimentConfig  # noqa: F401
