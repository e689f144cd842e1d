"""Trajectory-guided video-language toolkit.

Library surface:
    trees      bracketed constituency trees, lowest-layer NP extraction
    tracks     point tracks, RLE masks, k-means++ condensation, matrices
    pipeline   manifest -> annotated JSONL records with temporal text
    toymodel   surrogate alignment model, packed-batch loss and gradient pass
    trainer    staged gradient-descent training and data plumbing
    metrics    temporal grounding and dense captioning scores
    cli        the `pite` command
"""

from .metrics import (
    CaptionedEvent,
    TimeSegment,
    cider,
    grounding_scores,
    iou_bucketed_caption_scores,
    meteor_lite,
    soda_c,
    temporal_iou,
)
from .pipeline import (
    EventAnnotation,
    PipelineConfig,
    SmallObjectPolicy,
    VideoManifest,
    annotate_event,
    format_temporal,
    run_pipeline,
    timestamp_to_frame,
)
from .toymodel import (
    ToyModelParams,
    TrainerConfig,
    PackedBatch,
    TrainingSample,
    forward,
    grad_check,
    gradients,
    init_params,
    pack_batch,
    stage_loss,
    tile_init,
)
from .tracks import (
    Mask,
    PointTrack,
    TrajectoryMatrix,
    condense,
    filter_tracks_by_mask,
    kmeans_pp,
    to_matrix,
)
from .trainer import synthetic_dataset, train
from .trees import NounPhrase, ParseTree, extract_lowest_np, parse_bracketed

__version__ = "0.1.0"
