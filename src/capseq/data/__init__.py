from .types import (
    CheckinRecord,
    DataError,
    Encodings,
    Poi,
    Session,
    SocialGraph,
    UnknownIdError,
    Visit,
    visit_arrays,
)
from .parse import ParseResult, parse_checkins, parse_friendships
from .sessions import (
    DEFAULT_MIN_CHECKINS,
    SESSION_WINDOW_SECONDS,
    TravelTimeModel,
    build_sessions,
    derive_visits,
    filter_users,
    sessionize,
    training_sessions,
)
from .synth import synth_dataset
from . import io

__all__ = [
    "CheckinRecord",
    "DataError",
    "Encodings",
    "ParseResult",
    "Poi",
    "Session",
    "SocialGraph",
    "TravelTimeModel",
    "UnknownIdError",
    "Visit",
    "DEFAULT_MIN_CHECKINS",
    "SESSION_WINDOW_SECONDS",
    "build_sessions",
    "derive_visits",
    "filter_users",
    "io",
    "parse_checkins",
    "parse_friendships",
    "sessionize",
    "synth_dataset",
    "training_sessions",
    "visit_arrays",
]
