"""Temporal, frequency and identity encodings used by TGNNs and TASER."""

from .time_encoding import LearnableTimeEncoder, FixedTimeEncoder
from .frequency_encoding import FrequencyEncoder
from .identity_encoding import IdentityEncoder

__all__ = [
    "LearnableTimeEncoder",
    "FixedTimeEncoder",
    "FrequencyEncoder",
    "IdentityEncoder",
]
