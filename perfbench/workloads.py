"""The benchmark's workloads: fixed query lists, as plain data.

Each workload is one client issuing its queries in a fixed order, one
at a time (a closed loop). Patterns are written out here as plain edge
lists so that the answer oracle (``oracle.py``) never has to import the
engine it checks; ``engine.py`` turns them into ``repro`` patterns.

Why each workload exists:

* ``motifs`` — vertex-induced 3-motif counting on a dense labeled, a
  sparse and a dense social graph: one anti-join DAG (open wedge) and
  one join DAG (triangle) per graph. The wedge rows dominate, so Spark
  execution (join rows, shuffle bytes) dominates. This is where
  counting without enumeration (subgraph morphing: wedges from degree
  sums) and leaner DAGs show; planning is about zero.
* ``patterns`` — pattern queries where the driver side is a large share:
  the labeled p2 (label joins), the anti-vertex p7 (witness join,
  ``distinct``, anti-join) and the paper's 14-clique existence query,
  staged by clique size with early termination (``limit(1).take``).
  The existence query runs on PA with a planted 4-clique, so on every
  seed sizes 3 and 4 stop at the first witness and size 5, which no
  seed's graph has, is explored in full. Each stage builds a larger
  join DAG, so DataFrame construction over py4j, Catalyst and the
  number of small jobs and stages dominate. The prediction for
  counting without enumeration here is no change.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class PatternSpec:
    """A pattern as plain data. ``anti_vertices`` maps an extra vertex
    id to the regular vertices it is anti-adjacent to."""

    n: int
    edges: tuple[tuple[int, int], ...]
    anti_edges: tuple[tuple[int, int], ...] = ()
    labels: Optional[tuple[int, ...]] = None
    anti_vertices: dict = field(default_factory=dict)


#: The paper's Figure 9 patterns the workloads use (see
#: ``repro.patterns_eval`` for their definitions).
PATTERNS = {
    "p2": PatternSpec(3, ((0, 1), (0, 2), (1, 2)), labels=(1, 2, 3)),
    "p7": PatternSpec(3, ((0, 1), (0, 2), (1, 2)), anti_vertices={3: (0, 1, 2)}),
}

@dataclass(frozen=True)
class Query:
    """One engine call: ``kind`` names the ``repro.core.mining`` function,
    ``arg`` its size or pattern name."""

    kind: str  # motifs | match | exists_clique (the oracle also: cliques)
    graph: str
    arg: object

    @property
    def name(self) -> str:
        return f"{self.kind}({self.arg})@{self.graph}"


WORKLOADS: dict[str, list[Query]] = {
    "motifs": [
        Query("motifs", "MI", 3),
        Query("motifs", "PA", 3),
        Query("motifs", "OK", 3),
    ],
    "patterns": [
        Query("match", "MI", "p2"),
        Query("match", "OK", "p7"),
        Query("exists_clique", "PA+K4", 14),
    ],
}

#: Time of one warm pass over each query list on a 4-core box; turns
#: the warm-up and ``--seconds`` into the same pass counts on every run.
NOMINAL_PASS_S = {"motifs": 4.5, "patterns": 9.0}


def graphs_of(workload: str) -> list[str]:
    """Every graph a workload reads, in a fixed order."""
    return sorted({q.graph for q in WORKLOADS[workload]})
