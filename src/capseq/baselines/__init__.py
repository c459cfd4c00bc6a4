from .apriori import AprioriRecommender
from .hits import (
    HitsModel,
    HitsRecommender,
    cluster_regions,
    hits_fit,
    power_iterate,
)
from .markov import MarkovModel, MarkovRecommender, markov_fit, markov_walks
from .popularity import PopularityRecommender, popularity_next

__all__ = [
    "AprioriRecommender",
    "HitsModel",
    "HitsRecommender",
    "MarkovModel",
    "MarkovRecommender",
    "PopularityRecommender",
    "cluster_regions",
    "hits_fit",
    "markov_fit",
    "markov_walks",
    "popularity_next",
    "power_iterate",
]
