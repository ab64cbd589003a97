"""Shared fixtures for the benchmark suite (one module per paper table/figure)."""

from __future__ import annotations

import pytest

from repro.bench import bench_scale
from repro.graph import load_dataset, build_tcsr


@pytest.fixture(scope="session")
def wikipedia_graph():
    return load_dataset("wikipedia", scale=bench_scale(), seed=0)


@pytest.fixture(scope="session")
def reddit_graph():
    return load_dataset("reddit", scale=bench_scale(), seed=0)


@pytest.fixture(scope="session")
def wikipedia_tcsr(wikipedia_graph):
    return build_tcsr(wikipedia_graph)


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "paper(ref): which table/figure of the paper a bench reproduces")
