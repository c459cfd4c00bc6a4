"""capseq: context-aware personalized POI sequence recommendation.

Pipeline: parse or synthesize LBSN check-in logs, derive visit sessions,
build preference/context feature tables, train plain or context-aware
recurrent sequence models, generate top-k POI sequences, and evaluate
against popularity, Markov, Apriori and HITS baselines with pairs-F1,
diversity and displacement under cross-validation.
"""

from .data import (
    Encodings,
    Poi,
    Session,
    SocialGraph,
    TravelTimeModel,
    Visit,
    build_sessions,
    parse_checkins,
    parse_friendships,
    synth_dataset,
)
from .features import ATTRIBUTE_DIM, FEATURE_DIM, FeatureTables
from .generation import GenRequest, GeneratedSequence, generate
from .metrics import (
    EvalReport,
    cross_validate,
    displacement,
    diversity,
    pairs_f1,
)
from .models import (
    CapsLstmRecommender,
    CapsRnnRecommender,
    PlainRnnRecommender,
    load_checkpoint,
)
from .baselines import (
    AprioriRecommender,
    HitsRecommender,
    MarkovRecommender,
    PopularityRecommender,
)

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTE_DIM",
    "AprioriRecommender",
    "CapsLstmRecommender",
    "CapsRnnRecommender",
    "Encodings",
    "EvalReport",
    "FEATURE_DIM",
    "FeatureTables",
    "GenRequest",
    "GeneratedSequence",
    "HitsRecommender",
    "MarkovRecommender",
    "PlainRnnRecommender",
    "Poi",
    "PopularityRecommender",
    "Session",
    "SocialGraph",
    "TravelTimeModel",
    "Visit",
    "build_sessions",
    "cross_validate",
    "displacement",
    "diversity",
    "generate",
    "load_checkpoint",
    "pairs_f1",
    "parse_checkins",
    "parse_friendships",
    "synth_dataset",
]
