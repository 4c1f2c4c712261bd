"""Holistic retrieval and uncertainty-routed generation over visually rich
document corpora: hybrid embedding masking, bidirectional contrastive
retriever tuning, exact cosine retrieval, and a four-agent answer pipeline."""

__version__ = "0.1.0"

from .config import RunConfig
from .masking import Embedding
from .index import Pool, ingest_corpus, load_snapshot, merge_pools, save_snapshot, top_k
from .losses import Batch, LossReport, total_loss
from .pipeline import AnswerTrace, run_pipeline

__all__ = [
    "AnswerTrace",
    "Batch",
    "Embedding",
    "LossReport",
    "Pool",
    "RunConfig",
    "__version__",
    "ingest_corpus",
    "load_snapshot",
    "merge_pools",
    "run_pipeline",
    "save_snapshot",
    "top_k",
    "total_loss",
]
