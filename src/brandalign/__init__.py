"""Cross-brand session embedding toolkit.

Trains session-based item embeddings with a fused-feature SGNS network,
aligns the embedding spaces of two brands (domain-adaptation regularizer or
post-hoc linear/orthogonal projection), and evaluates next-item prediction
with hits@k and MRR@k.
"""

from .data import (BrandMapping, ClickSession, HotelCatalog, HotelRecord,
                   SessionSet, load_catalog, load_mapping, load_sessions,
                   split_sessions)
from .model import (EmbeddingSpace, ModelParams, TrainConfig,
                    export_embeddings, gradients, read_embeddings, train,
                    write_embeddings)
from .align import (ProjectionMatrix, apply_projection, common_rows,
                    fit_linear_projection, fit_procrustes)
from .evaluate import (MetricsReport, PredictionEvent, cross_brand_evaluate,
                       hits_at_k, make_events, mrr_at_k, rank_candidates)
from .synth import World, WorldConfig, generate_sessions, generate_world

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
