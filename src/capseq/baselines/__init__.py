from .apriori import AprioriRecommender, apriori_generate
from .hits import (
    HitsModel,
    HitsRecommender,
    cluster_regions,
    hits_fit,
    power_iterate,
)
from .markov import MarkovModel, MarkovRecommender, markov_fit, markov_generate
from .popularity import PopularityRecommender, popularity_next

__all__ = [
    "AprioriRecommender",
    "HitsModel",
    "HitsRecommender",
    "MarkovModel",
    "MarkovRecommender",
    "PopularityRecommender",
    "apriori_generate",
    "cluster_regions",
    "hits_fit",
    "markov_fit",
    "markov_generate",
    "popularity_next",
    "power_iterate",
]
