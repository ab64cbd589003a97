"""Synthetic Continuous-Time Dynamic Graph generators with planted noise.

The paper evaluates on five public datasets (Wikipedia, Reddit, Flights,
MovieLens, GDELT).  Those downloads are unavailable offline, so this module
generates synthetic CTDGs that reproduce the *properties TASER exploits*:

1. **Deprecated links** — a fraction of source nodes drift from one latent
   community to another at a random point in time.  Interactions recorded
   before the drift refer to the node's old community and become misleading
   for predicting its future interactions.
2. **Skewed neighborhood distribution** — node activity follows a power law
   and interactions are frequently repeated with the same partner ("best
   friend" edges), so neighborhoods mix a few dominant partners with many
   one-off ones.
3. **Noise interactions** — a fraction of events pick a destination uniformly
   at random; these are poor supervision signals and poor supporting
   neighbors.

Each destination node belongs to a fixed latent community; informative edges
connect a source to a destination of the source's *current* community.  Edge
features encode (a noisy view of) the destination's community and node
features encode the node's *initial* community, so a model must rely on
recent, informative neighbors to track the current community — the mechanism
that rewards temporal adaptive sampling.

The ground truth travels with the graph so tests and oracle baselines can
verify the planted structure: community assignments and drift times in
``TemporalGraph.meta``, per-event noise labels in ``TemporalGraph.labels``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from ..utils.rng import new_rng
from .temporal_graph import LABEL_DTYPE, TemporalGraph

__all__ = ["CTDGConfig", "generate_ctdg", "generate_drift_sequence"]


@dataclass
class CTDGConfig:
    """Configuration of the synthetic CTDG generator.

    The defaults produce a small Wikipedia-like bipartite interaction graph
    that trains in seconds; the named dataset presets in
    :mod:`repro.graph.datasets` override these fields.
    """

    #: number of source nodes (users); for unipartite graphs this is the total.
    num_src: int = 200
    #: number of destination nodes (items); ignored when ``bipartite=False``.
    num_dst: int = 100
    #: whether sources and destinations are disjoint partitions.
    bipartite: bool = True
    #: total number of interaction events.
    num_events: int = 5000
    #: number of latent communities.
    num_communities: int = 5
    #: time horizon; timestamps are drawn uniformly from ``[0, time_span)``.
    time_span: float = 1000.0
    #: dimensionality of edge features (0 = no edge features).
    edge_dim: int = 32
    #: dimensionality of node features (0 = no node features).
    node_dim: int = 0
    #: fraction of events whose destination is chosen uniformly at random.
    noise_prob: float = 0.15
    #: probability that an event repeats one of the source's past partners.
    repeat_prob: float = 0.3
    #: fraction of source nodes that drift to a different community.
    drift_fraction: float = 0.5
    #: Zipf exponent of the per-source activity distribution (higher = more skew).
    activity_skew: float = 1.1
    #: Zipf exponent of within-community destination popularity.
    popularity_skew: float = 0.8
    #: standard deviation of the Gaussian noise added to planted features.
    feature_noise: float = 0.5
    #: random seed.
    seed: int = 0
    #: free-form name recorded in the graph metadata.
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.num_src <= 1 or (self.bipartite and self.num_dst <= 1):
            raise ValueError("need at least two nodes per partition")
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError("noise_prob must be a probability")
        if not 0.0 <= self.repeat_prob <= 1.0:
            raise ValueError("repeat_prob must be a probability")
        if self.num_communities < 1:
            raise ValueError("need at least one community")
        if (self.num_dst if self.bipartite else self.num_src) < self.num_communities:
            raise ValueError("need at least one destination node per community")

    @property
    def num_nodes(self) -> int:
        return self.num_src + self.num_dst if self.bipartite else self.num_src


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Power-law weights over ``n`` items, randomly permuted, normalised."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def generate_ctdg(config: CTDGConfig) -> TemporalGraph:
    """Generate a synthetic CTDG according to ``config``.

    Returns a chronologically sorted :class:`TemporalGraph` carrying the
    planted ground truth.  Its ``meta`` holds each destination's
    ``dst_community`` and each source's community trajectory
    (``src_community_initial`` / ``src_community_final`` /
    ``src_drift_time``).  Its ``labels`` hold each event's ``is_noise`` (a
    uniformly-random destination) and ``uses_current_community`` (the
    destination matches the source's community *at the event time*; False
    for noise and deprecated picks).
    """
    cfg = config
    rng = new_rng(cfg.seed)
    n_src, n_dst = cfg.num_src, (cfg.num_dst if cfg.bipartite else cfg.num_src)
    n_nodes = cfg.num_nodes
    k = cfg.num_communities

    # --- static latent structure ---------------------------------------------
    dst_comm = rng.integers(0, k, size=n_dst)
    src_comm_initial = rng.integers(0, k, size=n_src)
    src_comm_final = src_comm_initial.copy()
    drifting = rng.random(n_src) < cfg.drift_fraction
    # Drifting sources move to a uniformly-chosen *different* community.
    new_comm = (src_comm_initial + rng.integers(1, k, size=n_src)) % k if k > 1 \
        else src_comm_initial
    src_comm_final = np.where(drifting, new_comm, src_comm_initial)
    src_drift_time = np.where(
        drifting,
        rng.uniform(0.2 * cfg.time_span, 0.8 * cfg.time_span, size=n_src),
        np.inf,
    )

    # Destination popularity within each community (skewed).
    comm_members = [np.nonzero(dst_comm == c)[0] for c in range(k)]
    # Guarantee every community has at least one destination.  A victim may
    # be the only member of a community filled earlier in the pass, so the
    # pass repeats until none is empty (``n_dst >= k`` lets it end).
    while any(members.size == 0 for members in comm_members):
        for c in range(k):
            if comm_members[c].size == 0:
                victim = rng.integers(0, n_dst)
                dst_comm[victim] = c
                comm_members = [np.nonzero(dst_comm == cc)[0] for cc in range(k)]
    comm_popularity = [_zipf_weights(members.size, cfg.popularity_skew, rng)
                       for members in comm_members]

    # --- event stream ----------------------------------------------------------
    activity = _zipf_weights(n_src, cfg.activity_skew, rng)
    event_src = rng.choice(n_src, size=cfg.num_events, p=activity)
    event_ts = np.sort(rng.uniform(0.0, cfg.time_span, size=cfg.num_events))
    event_dst_local = np.empty(cfg.num_events, dtype=np.int64)
    labels = np.zeros(cfg.num_events, dtype=LABEL_DTYPE)
    event_is_noise = labels["is_noise"]
    event_current = labels["uses_current_community"]

    # Per-source partner history for repeated ("best friend") interactions.
    partner_history: Dict[int, list] = {}
    u_noise = rng.random(cfg.num_events)
    u_repeat = rng.random(cfg.num_events)

    for i in range(cfg.num_events):
        s = int(event_src[i])
        t = event_ts[i]
        current_comm = int(src_comm_final[s] if t >= src_drift_time[s]
                           else src_comm_initial[s])
        history = partner_history.get(s)
        if history and u_repeat[i] < cfg.repeat_prob:
            # Repeat an existing partner, biased towards the most frequent one.
            counts = np.bincount(history)
            partners = np.nonzero(counts)[0]
            weights = counts[partners].astype(np.float64)
            d = int(rng.choice(partners, p=weights / weights.sum()))
            event_is_noise[i] = False
        elif u_noise[i] < cfg.noise_prob:
            d = int(rng.integers(0, n_dst))
            event_is_noise[i] = True
        else:
            members = comm_members[current_comm]
            d = int(rng.choice(members, p=comm_popularity[current_comm]))
            event_is_noise[i] = False
        event_dst_local[i] = d
        event_current[i] = (int(dst_comm[d]) == current_comm)
        partner_history.setdefault(s, []).append(d)

    # --- features -----------------------------------------------------------------
    comm_emb_edge = rng.standard_normal((k, cfg.edge_dim)) if cfg.edge_dim else None
    comm_emb_node = rng.standard_normal((k, cfg.node_dim)) if cfg.node_dim else None

    edge_feat = None
    if cfg.edge_dim:
        base = comm_emb_edge[dst_comm[event_dst_local]]
        edge_feat = (base + cfg.feature_noise
                     * rng.standard_normal((cfg.num_events, cfg.edge_dim))).astype(np.float32)

    node_feat = None
    if cfg.node_dim:
        node_feat = np.empty((n_nodes, cfg.node_dim), dtype=np.float32)
        src_base = comm_emb_node[src_comm_initial]
        noise_src = cfg.feature_noise * rng.standard_normal((n_src, cfg.node_dim))
        if cfg.bipartite:
            dst_base = comm_emb_node[dst_comm]
            noise_dst = cfg.feature_noise * rng.standard_normal((n_dst, cfg.node_dim))
            node_feat[:n_src] = (src_base + noise_src).astype(np.float32)
            node_feat[n_src:] = (dst_base + noise_dst).astype(np.float32)
        else:
            node_feat[:] = (src_base + noise_src).astype(np.float32)

    # --- global node ids ---------------------------------------------------------------
    if cfg.bipartite:
        dst_global = event_dst_local + n_src
    else:
        dst_global = event_dst_local

    meta = {
        "name": cfg.name,
        "bipartite": cfg.bipartite,
        "num_src": n_src,
        "num_dst": n_dst,
        "num_communities": k,
        "dst_community": dst_comm,
        "src_community_initial": src_comm_initial,
        "src_community_final": src_comm_final,
        "src_drift_time": src_drift_time,
        "config": cfg,
    }

    return TemporalGraph(
        src=event_src.astype(np.int64),
        dst=dst_global.astype(np.int64),
        ts=event_ts,
        num_nodes=n_nodes,
        edge_feat=edge_feat,
        node_feat=node_feat,
        meta=meta,
        labels=labels,
    )


def generate_drift_sequence(config: CTDGConfig, num_phases: int = 2) -> TemporalGraph:
    """Concatenate ``num_phases`` regimes of the same CTDG into one stream.

    A synthetic *drift scenario* for the streaming subsystem: every phase
    redraws the latent structure (community assignments, popularity, feature
    embeddings) from a phase-specific seed over the **same node universe**,
    and phases occupy consecutive time windows of length ``config.time_span``.
    A model trained online therefore sees its learned structure invalidated
    at every phase boundary — the streaming analogue of the paper's
    deprecated-link noise, stress-testing how quickly the online loop
    re-adapts after ingesting post-drift events.

    Node features (static by construction) come from the first phase; edge
    features are drawn per phase, so their community encoding shifts at each
    boundary.  The returned graph is chronological with the phases' labels
    in event order; its ``meta`` records ``phase_boundaries`` (the event
    index where each new phase begins) and the per-phase ``meta``s.
    """
    if num_phases < 1:
        raise ValueError("num_phases must be >= 1")
    graphs = [generate_ctdg(replace(config, seed=config.seed + 7919 * p,
                                    name=f"{config.name}-phase{p}"))
              for p in range(num_phases)]
    boundaries = np.cumsum([g.num_edges for g in graphs])[:-1]
    src = np.concatenate([g.src for g in graphs])
    dst = np.concatenate([g.dst for g in graphs])
    ts = np.concatenate([g.ts + p * config.time_span
                         for p, g in enumerate(graphs)])
    edge_feat = None if config.edge_dim == 0 \
        else np.concatenate([g.edge_feat for g in graphs])
    meta = {
        "name": f"{config.name}-drift",
        "bipartite": config.bipartite,
        "num_src": graphs[0].meta["num_src"],
        "num_dst": graphs[0].meta["num_dst"],
        "num_phases": num_phases,
        "phase_boundaries": boundaries,
        "phases": [g.meta for g in graphs],
        "config": config,
    }
    return TemporalGraph(src=src, dst=dst, ts=ts, num_nodes=config.num_nodes,
                         edge_feat=edge_feat, node_feat=graphs[0].node_feat,
                         meta=meta, labels=np.concatenate([g.labels for g in graphs]))
