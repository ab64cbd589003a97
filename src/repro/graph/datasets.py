"""Named dataset presets mirroring the paper's Table II.

The five presets reproduce the *structural profile* of the paper's datasets
(bipartiteness, which feature matrices exist, relative size and skew) at a
scale that trains on a CPU in seconds-to-minutes.  Every preset accepts a
``scale`` multiplier to grow the graph toward the original sizes.

==============  ==========  ===========  =========  =========  ====================
preset          bipartite   node feats   edge feats  relative    paper counterpart
                                                      size
==============  ==========  ===========  =========  =========  ====================
``wikipedia``   yes         no           yes         1x          Wikipedia (157K events)
``reddit``      yes         no           yes         4x          Reddit (672K events)
``flights``     no          yes          no          6x          Flights (1.9M events)
``movielens``   yes         no           yes         8x          MovieLens (49M events)
``gdelt``       no          yes          yes         10x         GDELT (191M events)
==============  ==========  ===========  =========  =========  ====================
"""

from __future__ import annotations

from typing import Dict, List

from .generators import CTDGConfig, generate_ctdg
from .temporal_graph import TemporalGraph

__all__ = ["DATASET_NAMES", "dataset_config", "load_dataset", "dataset_table"]

DATASET_NAMES: List[str] = ["wikipedia", "reddit", "flights", "movielens", "gdelt"]

#: Baseline (scale = 1.0) event counts per preset; chosen so the full Table I
#: benchmark finishes on a laptop CPU.  Multiply via ``scale`` to approach the
#: paper's sizes.
_BASE_EVENTS: Dict[str, int] = {
    "wikipedia": 6000,
    "reddit": 12000,
    "flights": 15000,
    "movielens": 20000,
    "gdelt": 24000,
}


def dataset_config(name: str, scale: float = 1.0, seed: int = 0) -> CTDGConfig:
    """Return the generator configuration of a named dataset preset."""
    key = name.lower()
    if key not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    events = int(_BASE_EVENTS[key] * scale)

    if key == "wikipedia":
        # Small bipartite editor->page graph, edge features only, heavy repeats.
        # The noise knobs are the highest of the presets: the paper reports its
        # largest TASER gains (+7.2% MRR for TGAT) on Wikipedia.
        return CTDGConfig(
            name="wikipedia", bipartite=True,
            num_src=int(200 * scale ** 0.5), num_dst=int(120 * scale ** 0.5),
            num_events=events, num_communities=5,
            edge_dim=32, node_dim=0,
            noise_prob=0.25, repeat_prob=0.45, drift_fraction=0.6,
            activity_skew=1.2, popularity_skew=0.9, feature_noise=0.4,
            seed=seed,
        )
    if key == "reddit":
        # Larger bipartite user->subreddit graph, edge features only.
        return CTDGConfig(
            name="reddit", bipartite=True,
            num_src=int(400 * scale ** 0.5), num_dst=int(150 * scale ** 0.5),
            num_events=events, num_communities=6,
            edge_dim=32, node_dim=0,
            noise_prob=0.12, repeat_prob=0.55, drift_fraction=0.4,
            activity_skew=1.3, popularity_skew=1.0, feature_noise=0.5,
            seed=seed,
        )
    if key == "flights":
        # Unipartite traffic graph, node features only (paper: no edge features).
        return CTDGConfig(
            name="flights", bipartite=False,
            num_src=int(250 * scale ** 0.5), num_dst=0,
            num_events=events, num_communities=6,
            edge_dim=0, node_dim=32,
            noise_prob=0.10, repeat_prob=0.6, drift_fraction=0.3,
            activity_skew=1.0, popularity_skew=1.0, feature_noise=0.4,
            seed=seed,
        )
    if key == "movielens":
        # Large bipartite user->movie graph with many users and edge features.
        return CTDGConfig(
            name="movielens", bipartite=True,
            num_src=int(800 * scale ** 0.5), num_dst=int(250 * scale ** 0.5),
            num_events=events, num_communities=8,
            edge_dim=48, node_dim=0,
            noise_prob=0.20, repeat_prob=0.35, drift_fraction=0.5,
            activity_skew=1.1, popularity_skew=1.1, feature_noise=0.6,
            seed=seed,
        )
    # gdelt: knowledge-graph-like, both node and edge features, extreme repeats.
    return CTDGConfig(
        name="gdelt", bipartite=False,
        num_src=int(300 * scale ** 0.5), num_dst=0,
        num_events=events, num_communities=8,
        edge_dim=40, node_dim=32,
        noise_prob=0.15, repeat_prob=0.5, drift_fraction=0.4,
        activity_skew=1.2, popularity_skew=1.0, feature_noise=0.5,
        seed=seed,
    )


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> TemporalGraph:
    """Generate (deterministically) the named synthetic dataset."""
    return generate_ctdg(dataset_config(name, scale=scale, seed=seed))


def dataset_table(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    """Regenerate the contents of the paper's Table II (dataset statistics)
    from each dataset's seed-0 graph."""
    table = {}
    for name in DATASET_NAMES:
        g = load_dataset(name, scale=scale)
        table[name] = g.statistics()
    return table
