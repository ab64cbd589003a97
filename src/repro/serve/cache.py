"""The serve layer's embedding-cache boundary, which caches nothing.

:class:`~repro.serve.ServeEngine` computes every endpoint at its own query
time.  The class stays because the frozen ``benchmarks/e2e/tracer.py`` times
``NodeEmbeddingCache.lookup`` as the ``serve.embcache`` span, whose traced
serve workload checks that the span is reached.
"""

__all__ = ["NodeEmbeddingCache"]


class NodeEmbeddingCache:
    """A stateless lookup that holds no embedding."""

    def lookup(self, nodes) -> None:
        """Return the cached rows of ``nodes``: there are none."""
        return None
