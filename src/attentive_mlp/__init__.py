"""Linear-cost adaptive-MLP attention with a toy parallel decoder and CPU benchmarks."""

from .tensor import (
    ContractError,
    DimensionError,
    GradCheck,
    Tape,
    Tensor,
    Var,
    backward,
    finite_difference_check,
)
from .attention import (
    AmlpCovParams,
    AmlpPQueryParams,
    AttentionInputs,
    CausalCovState,
    ConfigError,
    LowRankFactor,
    MultiHeadParams,
    NotPsdError,
    amlp_cov_forward,
    amlp_cov_weights,
    amlp_pquery_forward,
    amlp_pquery_weights,
    causal_amlp_cov_init,
    causal_amlp_cov_step,
    distance_attention,
    ema,
    low_rank_factor,
    mlp_forward,
    multi_head_forward,
    softmax_attention,
)
from .narmodel import (
    InputError,
    NarConfig,
    NarModel,
    SyntheticTask,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .bench import (
    ARCHITECTURES,
    BenchConfig,
    BenchRecord,
    SweepConfig,
    SweepRow,
    fit_loglog_slope,
    iqr_filter,
    model_memory,
    run_and_report,
    sweep_inner_dimension,
    time_architecture,
)
from .verify import PropertyResult, run_verification

__version__ = "0.1.0"
