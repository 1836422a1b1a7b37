"""Calls into the engine's public API (``repro.core``) for one query."""
from __future__ import annotations

from repro.core import mining
from repro.core.pattern import Pattern
from repro.harness import SparkGraph

from workloads import PATTERNS, PatternSpec, Query


def to_pattern(spec: PatternSpec) -> Pattern:
    """The ``repro`` pattern a :class:`PatternSpec` describes."""
    p = Pattern.of(spec.n, spec.edges, spec.anti_edges, spec.labels)
    for nbrs in spec.anti_vertices.values():
        p = p.add_anti_vertex(nbrs)
    return p


def run_query(q: Query, graphs: dict[str, SparkGraph]) -> object:
    """Run ``q`` and return its answer in the oracle's JSON form."""
    sg = graphs[q.graph]
    if q.kind == "motifs":
        return {k: int(v) for k, v in mining.count_motifs(sg.edges, q.arg).items()}
    if q.kind == "match":
        return int(
            mining.match_pattern(sg.edges, to_pattern(PATTERNS[q.arg]), labels=sg.labels)
        )
    if q.kind == "exists_clique":
        return bool(mining.exists_clique(sg.edges, q.arg))
    raise ValueError(f"unknown query kind {q.kind!r}")
