from .types import (
    Checkins,
    DataError,
    Encodings,
    Poi,
    Session,
    SessionTable,
    SocialGraph,
    UnknownIdError,
    Visit,
)
from .parse import ParseResult, parse_checkins, parse_friendships
from .sessions import (
    DEFAULT_MIN_CHECKINS,
    SESSION_WINDOW_SECONDS,
    TravelTimeModel,
    build_sessions,
)
from .synth import synth_dataset
from . import io

__all__ = [
    "Checkins",
    "DataError",
    "Encodings",
    "ParseResult",
    "Poi",
    "Session",
    "SessionTable",
    "SocialGraph",
    "TravelTimeModel",
    "UnknownIdError",
    "Visit",
    "DEFAULT_MIN_CHECKINS",
    "SESSION_WINDOW_SECONDS",
    "build_sessions",
    "io",
    "parse_checkins",
    "parse_friendships",
    "synth_dataset",
]
