"""Seeded input graphs for the benchmark.

Seed 0 reproduces the lite datasets of ``repro.graph.datasets``
exactly (same sampler, sizes and seeds). Any other seed shifts every
graph seed and label seed by ``SEED_STRIDE * seed`` and moves the
planted clique to other vertices, so a run on a new seed measures the
same kind of graph with different edges.

The graphs are built with ``repro.graph.gengraph``: input generation is
part of the engine's set-up and is timed as ``setup.generate_s``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SEED_STRIDE = 1000


@dataclass(frozen=True)
class GraphSpec:
    """Parameters of one power-law graph, as in ``repro.graph.datasets``."""

    n: int
    m: int
    alpha: float
    seed: int
    n_labels: Optional[int] = None


#: Parameters of the lite datasets the workloads use (``repro.graph.datasets``).
GRAPHS = {
    "MI": GraphSpec(800, 3000, 0.5, 11, n_labels=8),
    "PA": GraphSpec(3000, 8000, 0.45, 22),
    "OK": GraphSpec(2000, 12000, 0.5, 33),
}

#: Graphs with a planted clique: name -> (base graph, clique size).
PLANTED = {"PA+K4": ("PA", 4)}

#: Smoke mode shrinks every graph by this factor (tests only).
SMOKE_SCALE = 0.1


def generate(name: str, seed: int, smoke: bool = False):
    """The named input graph for ``seed`` as a ``repro`` ``Graph``."""
    # imported here: the callers put ``src`` on the path at start-up
    from repro.graph.gengraph import (
        from_edge_list,
        powerlaw_graph,
        with_labels,
    )

    if name in PLANTED:
        base_name, k = PLANTED[name]
        base = generate(base_name, seed, smoke)
        members = clique_members(base, k, seed)
        clique = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
        return from_edge_list(
            base.edge_tuples() + clique, name=name, degree_order=True
        )
    spec = GRAPHS[name]
    shift = SEED_STRIDE * seed
    scale = SMOKE_SCALE if smoke else 1.0
    g = powerlaw_graph(
        max(int(spec.n * scale), 10),
        max(int(spec.m * scale), 20),
        alpha=spec.alpha,
        seed=spec.seed + shift,
        name=name,
    )
    if spec.n_labels is not None:
        g = with_labels(g, spec.n_labels, seed=spec.seed + shift)
    return g


def clique_members(base, k: int, seed: int) -> list[int]:
    """The ``k`` vertices of ``base`` that the planted clique joins."""
    rng = np.random.default_rng(SEED_STRIDE * seed + k)
    vs = np.unique(base.edges_pdf.src.to_numpy())
    return sorted(int(v) for v in rng.choice(vs, size=k, replace=False))
