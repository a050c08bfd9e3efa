"""Human motion prediction: attention-summarized history, iterative
frequency-space refinement with graph convolutions, kinematics-aware losses."""

from .attention import (
    AttentionParams,
    MotionSummary,
    encode,
    init_attention_params,
    kernel_widths,
    summarize_history,
)
from .data import (
    SequenceDataset,
    SynthSpec,
    extract_windows,
    gen_synthetic,
    load_dataset,
    load_sequence,
    save_sequence,
    window_index,
)
from .errors import (
    ConfigurationError,
    DataError,
    DimensionError,
    FormatError,
    SkeletonError,
    StateError,
    TapeError,
)
from .kinematics import (
    KinematicChain,
    PoseSequence,
    Skeleton,
    default_humanoid_skeleton,
    load_skeleton,
    mpjpe_per_frame,
    save_skeleton,
    synthetic_skeleton,
)
from .losses import (
    LossConfig,
    assemble_lambda,
    build_loss_weights,
    loss_st,
    loss_total,
    loss_velocity,
    spatial_factors,
    temporal_factors,
)
from .model import (
    ModelConfig,
    ModelOutput,
    ModelParams,
    count_parameters,
    init_model_params,
    model_forward,
    named_parameters,
)
from .refinement import (
    GlmParams,
    RefinementParams,
    glm_forward,
    graph_conv,
    graph_learning_block,
    init_refinement_params,
    pad_query,
    refine,
)
from .tensor import (
    GraphBlock,
    GraphConv,
    Mode,
    RunningStats,
    Tensor,
    backward,
    conv1d_relu,
    matmul,
    no_grad,
)
from .trainer import (
    AdamState,
    OptimizerConfig,
    TrainSettings,
    adam_step,
    evaluate,
    frames_from_milliseconds,
    load_checkpoint,
    lr_schedule,
    predict_autoregressive,
    save_checkpoint,
    train,
)
from .transforms import DctBasis, dct, dct_basis, idct
