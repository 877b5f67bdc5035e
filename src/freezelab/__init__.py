"""freezelab: desk-scale detector training with scheduled backbone freezing.

The package trains a tiny conv detector on synthetic scenes while a
freezing schedule decides, epoch by epoch, whether gradient may flow into
the backbone. An exact FLOP ledger and a minutes estimator price each
schedule, and mAP@50 scores what the schedule cost in accuracy.
"""

from .autodiff import (
    PRIMITIVE_KINDS,
    ShapeMismatchError,
    Tape,
    Tensor,
    backward,
    detach,
    pause_recording,
)
from .data import Scene, SceneConfig, generate_dataset, generate_scene
from .evaluation import (
    BBox,
    Detection,
    EvalReport,
    GroundTruth,
    average_precision,
    iou,
    map50,
    match_detections,
)
from .experiment import (
    EpochRecord,
    ExperimentConfig,
    RunResult,
    default_config,
    load_config,
    run_experiment,
    save_config,
    train_epoch,
)
from .flops import (
    FlopsLedger,
    LayerFlopsSpec,
    TimeModel,
    delta_flops,
    estimate_training_time,
    layer_forward_flops,
)
from .model import (
    Detector,
    Layer,
    PredictionGrid,
    ShapeChainError,
    build_detector,
    default_desk_arch,
    detection_loss,
    detector_forward,
    parameter_groups,
)
from .optim import OptimState, SgdConfig, clip_gradients, global_grad_norm, sgd_step
from .schedule import (
    BACKBONE_FROZEN,
    BACKBONE_UNFROZEN,
    LrConfig,
    ScheduleSpec,
    lr_at,
    parse_rho,
    phase_freeze_signal,
    step_freeze_signal,
)

__version__ = "0.1.0"
