"""Shared fixtures for the test suite."""

from __future__ import annotations

# Before numpy, as in the program's entry points: ``repro`` pins BLAS to one
# thread at import, so scoring sizes its thread pool from the CPUs.
import repro.tensor

import numpy as np
import pytest
from repro.graph import CTDGConfig, generate_ctdg, build_tcsr, chronological_split


@pytest.fixture(scope="class")
def float64_compute():
    """Rebind ``repro.tensor.COMPUTE_DTYPE`` to float64 for a test (class).

    The program computes in float32; a gradient check or a composed-oracle
    comparison at 1e-9 needs float64.  No kernel names a dtype, so modules
    built (and Python numbers wrapped) while this fixture is active carry
    float64 through the very kernels the float32 program runs — the only way
    a test gets float64, and not a second code path.  Request it with
    ``pytest.mark.usefixtures("float64_compute")`` on a test, a class or a
    module (``pytestmark``); class scope keeps it usable under ``@given``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.tensor, "COMPUTE_DTYPE", np.float64)
        yield


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_graph():
    """A small bipartite CTDG with edge features (wikipedia-like profile)."""
    cfg = CTDGConfig(num_src=40, num_dst=25, num_events=1200, num_communities=4,
                     edge_dim=12, node_dim=0, noise_prob=0.15, repeat_prob=0.4,
                     drift_fraction=0.5, seed=7, name="test-small")
    return generate_ctdg(cfg)


@pytest.fixture(scope="session")
def featured_graph():
    """A small unipartite CTDG with both node and edge features (gdelt-like)."""
    cfg = CTDGConfig(num_src=30, num_dst=0, bipartite=False, num_events=800,
                     num_communities=3, edge_dim=10, node_dim=6, seed=11,
                     name="test-featured")
    return generate_ctdg(cfg)


@pytest.fixture(scope="session")
def small_tcsr(small_graph):
    return build_tcsr(small_graph)


@pytest.fixture(scope="session")
def small_split(small_graph):
    return chronological_split(small_graph)
