"""capypipe: manifest curation, image tiling, and token budgeting for
multimodal training data."""

from .audio import AudioProfile, decode_wav, log_mel, profile, resample_16k
from .manifest import (
    FilterVerdict,
    Language,
    MediaKind,
    MediaRef,
    PipelineConfig,
    SampleRecord,
    Scenario,
    read_manifest,
    validate,
    write_manifest,
)
from .metrics import EditSummary, bleu, cer, jaccard_shingles, ngram_cosine, wer
from .pipeline import (
    ClusterAssignment,
    FilterReport,
    cluster_prune,
    curate,
    dedup_exact,
    filter_asr,
    filter_s2tt,
    stats,
)
from .tiler import (
    EmbeddingGrid,
    TilePlan,
    bilinear_resize,
    interpolate_pos_embed,
    plan_tiles,
    resize_geometry,
)
from .tokens import (
    TokenLayout,
    assemble_layout,
    audio_budget,
    compress_tokens,
    flatten_with_row_breaks,
    image_budget,
)
from .video import FrameSchedule, frame_count, schedule

__version__ = "0.1.0"
