"""Pluggable prep backends for the batch-preparation hot path.

The unified prep runtime (:mod:`repro.core.prep`) made batch preparation a
single seam; this module makes that seam *pluggable*, mirroring what
:mod:`repro.tensor.backend` did for the propagation hot path.  Every consumer
(trainer engines, streaming windows, sharded replicas, evaluators) builds its
pipeline through :func:`make_prep_pipeline`, so a backend swap lands in all
execution paths at once.

Two backends ship with the repo:

``reference``
    :class:`~repro.core.prep.PrepPipeline` — the unified prep runtime,
    verbatim.  Neighbor finding runs through the configured finder unchanged
    (for the "original" finder: one Python-loop binary search per seed).
    This is the semantics anchor.

``fused``
    :class:`FusedPrepPipeline` — the same staged dataflow, but temporal
    neighbor lookup is vectorised across the whole batch through
    :class:`~repro.sampling.fused_probe.BatchedProbeFinder`: sorted-offset
    T-CSR probes via one composite-key ``searchsorted``
    (:meth:`~repro.graph.tcsr.TCSR.pivots`) and batched candidate
    generation.

Bitwise-equivalence contract
----------------------------
A prep backend may change *how* batches are assembled but never *what* they
contain: :class:`~repro.core.prep.PreparedBatch` arrays must be
bitwise-identical to the reference backend's under a fixed seed, and every
RNG draw (finder policies, negative sampling) must happen in exactly the
reference order — so loss/MRR trajectories match bit for bit on every
execution path.  The fig1 benchmark enforces this as a
``prep_backend_equivalence`` hash pair that ``tools/bench_gate.py`` checks at
every scale.

Selecting a backend
-------------------
Resolution order: an explicit name (the ``--prep-backend`` CLI flag /
``TaserConfig.prep_backend``) > the ``REPRO_PREP_BACKEND`` environment
variable > ``"reference"``.  Unknown names raise ``ValueError`` listing the
registered backends, so a typo fails at configuration/parse time.  Worker
processes re-resolve from the :class:`~repro.core.config.TaserConfig` they
receive, so sharded replicas install the same backend as the coordinator.

Extension recipe: subclass :class:`~repro.core.prep.PrepPipeline`, set a
``name``, keep the constructor signature, and
``register_prep_backend("mine", MyPipeline)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from ..sampling.fused_probe import BatchedProbeFinder
from .pipeline import MiniBatchGenerator
from .prep import PrepPipeline
from .registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..eval.negative_sampling import NegativeSampler
    from ..graph.splits import TemporalSplit
    from ..graph.temporal_graph import TemporalGraph

__all__ = [
    "FusedPrepPipeline",
    "available_prep_backends",
    "register_prep_backend",
    "resolve_prep_backend_name",
    "make_prep_pipeline",
    "DEFAULT_PREP_BACKEND",
    "PREP_BACKEND_ENV_VAR",
]

DEFAULT_PREP_BACKEND = "reference"
PREP_BACKEND_ENV_VAR = "REPRO_PREP_BACKEND"


class FusedPrepPipeline(PrepPipeline):
    """Prep runtime with batch-vectorised temporal neighbor lookup.

    Wraps the consumer's finder in a :class:`~repro.sampling.fused_probe.
    BatchedProbeFinder` (sharing its RNG stream, so draw order is identical)
    and drives a sibling :class:`~repro.core.pipeline.MiniBatchGenerator`
    over the same feature store, adaptive sampler and timer.  Everything
    downstream of neighbor finding — the deduplicated fused gather, adaptive
    encoding, assembly — is inherited unchanged, which is what keeps the
    backend bitwise-identical to the reference.
    """

    name = "fused"

    def __init__(self, generator: MiniBatchGenerator,
                 negative_sampler: Optional["NegativeSampler"] = None,
                 graph: Optional["TemporalGraph"] = None,
                 split: Optional["TemporalSplit"] = None,
                 selector=None) -> None:
        fused_generator = MiniBatchGenerator(
            BatchedProbeFinder(generator.finder), generator.feature_store,
            generator.num_layers, generator.num_neighbors,
            generator.num_candidates,
            adaptive_sampler=generator.adaptive_sampler,
            timer=generator.timer)
        super().__init__(fused_generator, negative_sampler, graph=graph,
                         split=split, selector=selector)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: shared name->factory store + flag > REPRO_PREP_BACKEND > default
#: resolution (see :class:`repro.core.registry.Registry`).
_REGISTRY: "Registry[PrepPipeline]" = Registry(
    "prep backend", env_var=PREP_BACKEND_ENV_VAR,
    default=DEFAULT_PREP_BACKEND,
    hint="pick one via --prep-backend, TaserConfig.prep_backend or "
         f"{PREP_BACKEND_ENV_VAR}")


def register_prep_backend(name: str,
                          factory: Callable[..., PrepPipeline]) -> None:
    """Register a prep-backend factory under ``name`` (overwrites silently).

    ``factory`` is called with the :class:`PrepPipeline` constructor
    signature: ``factory(generator, negative_sampler, graph=, split=,
    selector=)``.
    """
    _REGISTRY.register(name, factory)


def available_prep_backends() -> Tuple[str, ...]:
    """Registered prep-backend names, sorted."""
    return _REGISTRY.names()


def resolve_prep_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend name: explicit > ``REPRO_PREP_BACKEND`` env > default.

    Raises ``ValueError`` with the registered names when the resolved name is
    unknown, so config/CLI validation can surface an actionable message.
    """
    return _REGISTRY.resolve(name)


def make_prep_pipeline(name: Optional[str], generator: MiniBatchGenerator,
                       negative_sampler: Optional["NegativeSampler"] = None,
                       graph: Optional["TemporalGraph"] = None,
                       split: Optional["TemporalSplit"] = None,
                       selector=None) -> PrepPipeline:
    """Build the named prep backend's pipeline over the given components."""
    factory = _REGISTRY.get(name)
    return factory(generator, negative_sampler, graph=graph, split=split,
                   selector=selector)


register_prep_backend("reference", PrepPipeline)
register_prep_backend("fused", FusedPrepPipeline)
