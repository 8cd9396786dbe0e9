"""evrep: event-camera streams to detector-ready tensors, plus the metrics
to compare representations: augmentation, motion-level stratification, and
COCO-style mAP with timestamp-tolerance matching."""

from .augment import AugmentConfig, augment, flip_h, resize_crop
from .bfm import BfmWeights, FoldStage, bfm_forward, load_weights, random_weights, save_weights
from .encoders import (
    SaeState, WindowState, event_count_image, event_volume, sae_init, surface_active_events,
)
from .evalmap import (
    EvalConfig,
    EvalResult,
    LevelEvalResult,
    iou,
    map_by_level,
    map_metric,
    match_timestamps,
)
from .model import (
    Annotation,
    Detection,
    EncoderParams,
    EventStream,
    FlowField,
    FrameGeometry,
    TensorCHW,
    WindowView,
)
from .motion import (
    MotionLevels,
    SanitizeReport,
    bbofd,
    flow_intensity,
    motion_levels,
    sanitize_report,
)
from .taf import (
    TafState,
    taf_init,
    taf_render,
    taf_step,
    temporal_active_focus,
    transform_elapse,
)

__version__ = "0.1.0"
