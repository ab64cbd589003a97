"""Low-precision storage tiers for the feature path.

PR 4's deduplicated gather cut the *rows* the feature store moves; this
module cuts the *width* of every surviving row.  Features can be stored — in
the backing table served by :class:`~repro.device.memory.FeatureStore` and
in the compressed caches of :mod:`repro.device.cache` /
:mod:`repro.serve.cache` — at one of three tiers:

``fp32``
    Full width (the datasets' native feature dtype).  The semantics anchor:
    selecting this tier is bitwise-identical to a build without precision
    tiers on every execution path (engines, streaming, sharded, serve).
``fp16``
    IEEE half precision: 2 bytes/element, ~3 decimal digits.
``int8``
    Per-feature **affine quantization**: 1 byte/element.  For column ``j``
    with training-feature range ``[lo_j, hi_j]``, ``scale_j = (hi_j -
    lo_j) / 255`` and a value encodes as ``q = round((x - lo_j) /
    scale_j)`` clipped to ``[0, 255]``; dequantization is ``q * scale_j +
    lo_j``.  The ``(scale, zero-point)`` pair is computed **once** from the
    features present at fit time and frozen — rows ingested later reuse it,
    so an encoded table never needs re-encoding — and dequantization is a
    pure elementwise expression, bitwise-reproducible across runs and
    engines.

Exactness and error contracts
-----------------------------
* ``fp32`` round-trips every float32 feature exactly.
* ``int8`` round-trips with per-element error ``<= scale_j / 2`` for values
  inside the fitted range (out-of-range values ingested after fit clip to
  the range boundary); constant and all-zero columns have ``scale = 1`` and
  round-trip **exactly** (they encode to ``q = 0`` and decode to ``lo``).
* ``fp16`` carries IEEE half-precision relative error (~2^-11).
* Lossy tiers are budgeted, not free: consumers report the achieved MRR
  delta against :attr:`PrecisionPolicy.mrr_budget` (enforced by
  ``benchmarks/bench_precision.py`` at scale >= 0.5).

Selecting a tier
----------------
The three tiers are fixed: :data:`PRECISION_TIERS` maps each name to its
codec class, and :func:`resolve_precision_name` picks one — an explicit
name (the ``--precision`` CLI flag / ``TaserConfig.precision``) > the
``REPRO_PRECISION`` environment variable > ``"fp32"``.  Unknown names raise
``ValueError`` listing the tiers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Type, Union

import numpy as np

from .. import tensor as _tensor

__all__ = [
    "PrecisionCodec",
    "Fp32Codec",
    "Fp16Codec",
    "Int8Codec",
    "PrecisionPolicy",
    "PRECISION_TIERS",
    "resolve_precision_name",
    "roundtrip_rows",
    "DEFAULT_PRECISION",
    "PRECISION_ENV_VAR",
]

DEFAULT_PRECISION = "fp32"
PRECISION_ENV_VAR = "REPRO_PRECISION"


class PrecisionCodec:
    """One storage tier: fit once, then encode/decode feature rows.

    ``itemsize`` is the tier's bytes per element — the number the feature
    store's transfer accounting charges per moved element.
    """

    name: str = "abstract"
    itemsize: int = 4

    def fit(self, features: np.ndarray) -> "PrecisionCodec":
        """Compute (and freeze) any data-dependent codec state; returns
        ``self``.  Stateless tiers accept any shape, including 0 rows."""
        return self

    def encode(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, encoded: np.ndarray) -> np.ndarray:
        """Dequantize to ``repro.tensor.COMPUTE_DTYPE`` (float32): the
        ``fp32`` tier hands its rows back uncopied, the lossy tiers decode
        straight to it."""
        raise NotImplementedError


class Fp32Codec(PrecisionCodec):
    """Full-width tier: float32 storage, exact for float32 sources.

    The semantics anchor — :class:`~repro.device.memory.FeatureStore`
    bypasses the codec entirely for this tier and gathers straight from the
    graph's own arrays, so the fp32 path is *bitwise* today's path; this
    class exists so the tier behaves uniformly in tests and caches.
    """

    name = "fp32"
    itemsize = 4

    def encode(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows).astype(np.float32)

    def decode(self, encoded: np.ndarray) -> np.ndarray:
        return np.asarray(encoded).astype(_tensor.COMPUTE_DTYPE, copy=False)


class Fp16Codec(PrecisionCodec):
    """IEEE half-precision tier: 2 bytes/element, stateless."""

    name = "fp16"
    itemsize = 2

    def encode(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows).astype(np.float16)

    def decode(self, encoded: np.ndarray) -> np.ndarray:
        return np.asarray(encoded).astype(_tensor.COMPUTE_DTYPE)


class Int8Codec(PrecisionCodec):
    """Per-column affine uint8 tier: 1 byte/element.

    :meth:`fit` computes per-column ``lo`` (the zero-point, in feature
    units) and ``scale`` from the training features and freezes them;
    rows encoded later (streaming/serving ingest) reuse the frozen pair and
    clip to the fitted range.  Columns with zero span (constant or all-zero)
    get ``scale = 1`` and round-trip exactly.
    """

    name = "int8"
    itemsize = 1

    def __init__(self) -> None:
        self.lo: Optional[np.ndarray] = None
        self.scale: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray) -> "Int8Codec":
        f = np.asarray(features, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError(f"expected a (rows, dim) feature matrix, "
                             f"got shape {f.shape}")
        dim = f.shape[1]
        if f.shape[0] == 0:
            self.lo = np.zeros(dim, dtype=np.float64)
            self.scale = np.ones(dim, dtype=np.float64)
            return self
        self.lo = f.min(axis=0)
        span = f.max(axis=0) - self.lo
        self.scale = np.where(span > 0, span / 255.0, 1.0)
        return self

    @property
    def zero_point(self) -> Optional[np.ndarray]:
        """The affine zero-point in quantized units: ``-lo / scale``."""
        if self.lo is None:
            return None
        return -self.lo / self.scale

    def encode(self, rows: np.ndarray) -> np.ndarray:
        if self.lo is None:
            raise RuntimeError("Int8Codec.encode before fit()")
        x = np.asarray(rows, dtype=np.float64)
        q = np.rint((x - self.lo) / self.scale)
        return np.clip(q, 0.0, 255.0).astype(np.uint8)

    def decode(self, encoded: np.ndarray) -> np.ndarray:
        if self.lo is None:
            raise RuntimeError("Int8Codec.decode before fit()")
        dtype = _tensor.COMPUTE_DTYPE
        out = np.asarray(encoded).astype(dtype)
        out *= self.scale.astype(dtype)
        out += self.lo.astype(dtype)
        return out


#: the storage tiers, anchor first; the CLI's ``--precision`` choices.
PRECISION_TIERS: Dict[str, Type[PrecisionCodec]] = {
    "fp32": Fp32Codec, "fp16": Fp16Codec, "int8": Int8Codec}


def resolve_precision_name(name: Optional[str] = None) -> str:
    """Resolve a tier name: explicit > ``REPRO_PRECISION`` env > ``fp32``.

    Raises ``ValueError`` listing the tiers when the resolved name is
    unknown (naming the environment variable when it was the source), so
    config/CLI validation can surface an actionable message.
    """
    source = "requested"
    if name is None:
        name = os.environ.get(PRECISION_ENV_VAR, "").strip()
        source = f"{PRECISION_ENV_VAR} environment variable"
        if not name:
            return DEFAULT_PRECISION
    if name not in PRECISION_TIERS:
        raise ValueError(
            f"unknown precision tier {name!r} ({source}): the tiers are "
            f"{', '.join(PRECISION_TIERS)}; pick one via --precision, "
            f"TaserConfig.precision or {PRECISION_ENV_VAR}")
    return name


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecisionPolicy:
    """How the feature path trades representation width for capacity.

    ``tier`` is the storage tier of the backing feature table (and the
    coldest tier of the compressed caches).  ``mrr_budget`` is the accuracy
    contract of a lossy tier: benchmarks assert ``|MRR(tier) - MRR(fp32)|
    <= mrr_budget``.  ``hot_fraction`` / ``warm_fraction`` split a
    compressed cache's fixed byte budget between its fp32 (hot) and fp16
    (warm) regions; the remainder is int8 (cold) — see
    :class:`~repro.device.cache.TieredFeatureCache`.
    """

    tier: str = DEFAULT_PRECISION
    mrr_budget: float = 0.05
    hot_fraction: float = 0.3
    warm_fraction: float = 0.3

    def __post_init__(self) -> None:
        resolve_precision_name(self.tier)
        if self.mrr_budget < 0:
            raise ValueError(f"mrr_budget must be >= 0, got {self.mrr_budget}")
        if not (0.0 <= self.hot_fraction <= 1.0
                and 0.0 <= self.warm_fraction <= 1.0
                and self.hot_fraction + self.warm_fraction <= 1.0):
            raise ValueError(
                "hot_fraction and warm_fraction must be in [0, 1] with "
                f"hot + warm <= 1, got hot={self.hot_fraction} "
                f"warm={self.warm_fraction}")

    @classmethod
    def coerce(cls, value: Union[None, str, "PrecisionPolicy"],
               **overrides) -> "PrecisionPolicy":
        """Normalise a constructor argument into a policy.

        ``None`` resolves the environment (``REPRO_PRECISION`` then
        ``fp32``); a string is a tier name; a policy passes through
        (``overrides`` are ignored for a ready-made policy).
        """
        if isinstance(value, cls):
            return value
        return cls(tier=resolve_precision_name(value), **overrides)

    @property
    def is_exact(self) -> bool:
        """True for the bitwise-identical fp32 anchor tier."""
        return self.tier == "fp32"

    @property
    def bytes_per_element(self) -> int:
        return PRECISION_TIERS[self.tier].itemsize

    def make_codec(self) -> PrecisionCodec:
        """A fresh (unfitted) codec of the configured tier."""
        return PRECISION_TIERS[self.tier]()


# ---------------------------------------------------------------------------
# per-row round-trips (embedding caches)
# ---------------------------------------------------------------------------


def roundtrip_rows(tier: str, rows: np.ndarray) -> np.ndarray:
    """Apply one tier's quantize-dequantize loss to embedding rows.

    Embedding caches store *rows computed at serve time*, so there is no
    training matrix to fit a per-column codec on; instead each row carries
    its own affine range (``int8``), or casts elementwise (``fp16`` /
    ``fp32``).  Returns rows of the same shape and dtype — a pure,
    deterministic function of the input, which is what keeps tiered serving
    bitwise-reproducible in replay.
    """
    x = np.asarray(rows)
    if x.ndim != 2:
        raise ValueError(f"expected (rows, dim), got shape {x.shape}")
    tier = resolve_precision_name(tier)
    if tier == "fp32":
        return x.astype(np.float32).astype(x.dtype, copy=False)
    if tier == "fp16":
        return x.astype(np.float16).astype(x.dtype)
    # int8: per-row affine (each row its own lo/scale).
    lo = x.min(axis=1, keepdims=True)
    span = x.max(axis=1, keepdims=True) - lo
    scale = np.where(span > 0, span / 255.0, 1.0)
    q = np.clip(np.rint((x - lo) / scale), 0.0, 255.0)
    return q * scale + lo
