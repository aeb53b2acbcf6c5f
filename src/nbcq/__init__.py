"""nbcq: post-training quantization error compensation.

Uniform affine quantization, closed-form blockwise compensation (plain
linear and transformed through bipolar logarithmic range compression), a
hold-out local search for the transform's threshold exponent, and a
desk-scale synthetic harness that exercises the outlier mechanisms end to
end.
"""

from .compensation import (
    STORAGE_F16,
    STORAGE_F32,
    STORAGE_I8,
    CalibrationRecord,
    CompensationModule,
    fit_linear,
    fit_nbc,
    store_params,
)
from .compensation import apply as apply_compensation
from .errors import (
    BadMagicError,
    BadVersionError,
    ConfigError,
    EvaluatorError,
    FitError,
    FormatError,
    NbcError,
    TruncatedFileError,
)
from .fls import (
    FlsConfig,
    FlsResult,
    compute_feature_loss,
    fls_search,
    holdout_split,
    search_n_for_pipeline,
)
from .formats import RunConfig, read_bundle, read_run_config, read_tensor, write_bundle, write_tensor
from .harness import (
    EvalReport,
    OutlierSpec,
    ToyModel,
    build_toy_model,
    generate_calibration,
    ols_scalar_bias,
    slope_gap_analysis,
    split_error_metrics,
)
from .numerics import LstsqSolution, encode_f16_roundtrip, solve_least_squares
from .quantizer import (
    QuantParams,
    QuantizedTensor,
    calibrate_params,
    dequantize,
    quantize,
    quantize_per_channel,
)
from .transform import (
    TransformKind,
    apply_kind_forward,
    apply_kind_inverse,
    blt_forward,
    blt_inverse,
)

__version__ = "0.1.0"
