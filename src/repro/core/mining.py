"""Peregrine mining applications (§3.2, Figure 4).

Each application is the paper's pattern program expressed over the
DataFrame matching engine:

* :func:`count_motifs` — Fig. 4e: vertex-induced counts of every
  connected pattern with ``size`` vertices (3- and 4-motifs morphed
  from degree sums and the dense motifs' join DAGs;
  :func:`count_motifs_direct` runs one join DAG per motif);
* :func:`count_cliques` — k-clique counting;
* :func:`match_pattern` — pattern matching, optionally labeled /
  constrained / vertex-induced;
* :func:`exists_pattern` — Fig. 4f existence query with early
  termination (``limit(1)`` lets Spark cancel outstanding work once a
  witness is found — the dataflow analog of ``stopExploration()``);
* :func:`global_clustering_coefficient` / :func:`cc_exceeds` — Fig. 4b;
* :func:`fsm` — Fig. 4a: MNI-support frequent subgraph mining with
  dynamic label discovery and anti-monotone extension.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import pandas as pd
from pyspark.sql import DataFrame, functions as F

from .matcher import count_matches, match_df, vertex_orbits
from .pattern import (
    Pattern,
    chain,
    clique,
    generate_all_vertex_induced,
    star,
)
from .plan import generate_plan

# Human names for the small motifs, keyed by canonical key.
MOTIF_NAMES = {
    star(3).canonical_key(): "wedge",
    clique(3).canonical_key(): "triangle",
}
_4 = {
    "path4": Pattern.of(4, [(0, 1), (1, 2), (2, 3)]),
    "star4": star(4),
    "cycle4": Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "tailed_triangle": Pattern.of(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": Pattern.of(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "clique4": clique(4),
}
MOTIF_NAMES.update({p.canonical_key(): n for n, p in _4.items()})


def motif_name(p: Pattern) -> str:
    return MOTIF_NAMES.get(p.canonical_key(), str(p))


def count_motifs(
    edges: DataFrame, size: int, symmetry_breaking: bool = True
) -> dict[str, int]:
    """Vertex-induced counts of all connected ``size``-vertex patterns
    (Fig. 4e). Returns ``{motif name: count}``.

    For ``size`` 3 and 4 with symmetry breaking, counts are *morphed*
    (subgraph morphing, Jamshidi, Xu & Vora, EuroSys 2023 — the
    follow-up to Peregrine, not Peregrine itself): only the dense
    motifs (the triangle; cycle4, tailed triangle, diamond and 4-clique)
    run a join DAG. The sparse motifs — the trees wedge, path4 and
    star4 — get their edge-induced counts ``N(P)`` from one degree
    aggregate (:func:`degree_sums`, as in ESCAPE), and the containment
    matrix turns them into vertex-induced counts::

        I(P) = N(P) - sum over dense Q of c(P, Q) * I(Q)

    where ``c(P, Q)`` (:func:`containment`) is the number of edge subsets
    of ``Q`` that form ``P``. Every size-``size`` subgraph isomorphic to
    ``P`` spans a vertex set whose induced motif is ``P`` itself or a
    denser ``Q``, and every ``Q`` that contains a tree here is dense.

    Other sizes and ``symmetry_breaking=False`` (PRG-U) run the direct
    per-pattern loop, :func:`count_motifs_direct`."""
    if not symmetry_breaking or size not in (3, 4):
        return count_motifs_direct(edges, size, symmetry_breaking)
    wedges, stars, paths = degree_sums(edges, paths=size == 4)
    if size == 3:
        sparse = {star(3).canonical_key(): wedges}
    else:
        triangles = count_matches(edges, clique(3))
        sparse = {
            star(4).canonical_key(): stars,
            chain(4).canonical_key(): paths - 3 * triangles,
        }
    motifs = generate_all_vertex_induced(size)
    dense = {
        p.canonical_key(): count_matches(edges, p, induced=True)
        for p in motifs
        if p.canonical_key() not in sparse
    }
    c = containment(size)
    counts = dict(dense)
    for k, n in sparse.items():
        counts[k] = n - sum(c.get((k, q), 0) * i for q, i in dense.items())
    return {motif_name(p): counts[p.canonical_key()] for p in motifs}


def count_motifs_direct(
    edges: DataFrame, size: int, symmetry_breaking: bool = True
) -> dict[str, int]:
    """Fig. 4e as Peregrine runs it: one vertex-induced join DAG per
    motif. Figure 10 times this loop with and without symmetry breaking,
    so it measures symmetry breaking and not morphing."""
    out = {}
    for p in generate_all_vertex_induced(size):
        out[motif_name(p)] = count_matches(
            edges, p, induced=True, symmetry_breaking=symmetry_breaking
        )
    return out


def containment(size: int) -> dict[tuple[tuple, tuple], int]:
    """``c[(P, Q)]`` by canonical key: the number of edge subsets of the
    motif ``Q`` that form a connected pattern isomorphic to ``P`` on all
    ``size`` vertices (``c[(P, P)] == 1``; zero entries are left out)."""
    c: dict[tuple[tuple, tuple], int] = {}
    for q in generate_all_vertex_induced(size):
        qk = q.canonical_key()
        for r in range(size - 1, len(q.edges) + 1):
            for sub in itertools.combinations(sorted(q.edges), r):
                try:
                    pk = Pattern.of(size, sub).canonical_key()
                except ValueError:  # disconnected or misses a vertex
                    continue
                c[(pk, qk)] = c.get((pk, qk), 0) + 1
    return c


def degree_sums(edges: DataFrame, paths: bool = False) -> tuple[int, int, int]:
    """Edge-induced tree counts from one degree aggregate over ``edges``
    (``d`` = degree, i.e. rows per ``src``):

    * wedges ``sum C(d, 2)`` and 3-stars ``sum C(d, 3)``;
    * with ``paths``, ``1/2 * sum over directed edge rows (u, v) of
      (d_u - 1)(d_v - 1)``: 3-edge walks around a middle edge, which is
      every 3-edge path once and every triangle three times (one extra
      join of ``edges`` with the degrees). Without ``paths`` it is 0.

    One Spark action; an empty edge table gives zeros."""
    deg = edges.groupBy("src").agg(F.count("*").alias("d"))
    if paths:
        nbr = deg.select(F.col("src").alias("dst"), (F.col("d") - 1).alias("dn"))
        deg = edges.join(nbr, on="dst").groupBy("src").agg(
            F.count("*").alias("d"), F.sum("dn").alias("s")
        )
    else:
        deg = deg.withColumn("s", F.lit(0))
    d = F.col("d")
    row = deg.agg(
        F.sum(d * (d - 1)), F.sum(d * (d - 1) * (d - 2)), F.sum((d - 1) * F.col("s"))
    ).collect()[0]
    two, three, walks = (int(x or 0) for x in row)
    return two // 2, three // 6, walks // 2


def count_cliques(edges: DataFrame, k: int, symmetry_breaking: bool = True) -> int:
    """Number of k-cliques (edge- and vertex-induced coincide)."""
    return count_matches(edges, clique(k), symmetry_breaking=symmetry_breaking)


def match_pattern(
    edges: DataFrame,
    pattern: Pattern,
    labels: Optional[DataFrame] = None,
    induced: bool = False,
    symmetry_breaking: bool = True,
) -> int:
    """Count matches of an arbitrary (possibly labeled/constrained)
    pattern (Fig. 4d)."""
    return count_matches(
        edges, pattern, labels=labels, induced=induced,
        symmetry_breaking=symmetry_breaking,
    )


def exists_pattern(
    edges: DataFrame, pattern: Pattern, labels: Optional[DataFrame] = None
) -> bool:
    """Existence query with early termination (Fig. 4f / §5.3):
    ``limit(1)`` lets Spark cancel outstanding tasks once a witness row
    is produced."""
    return len(match_df(edges, pattern, labels=labels).limit(1).take(1)) > 0


def exists_clique(edges: DataFrame, k: int) -> bool:
    """k-clique existence query (the paper's 14-clique experiment).

    Staged early termination: a k-clique contains a j-clique for every
    j < k, so the search proceeds size-by-size and stops at the first
    absent size — the paper's observation that 'several partial
    explorations do not lead to a complete 14-clique' becomes an
    anti-monotone stop. (A single 14-clique join DAG would also be
    correct but costs Catalyst a 91-join plan; staging keeps each plan
    small, which is the dataflow analog of Peregrine abandoning a start
    vertex as soon as candidates run dry.)"""
    for j in range(3, k + 1):
        if not exists_pattern(edges, clique(j)):
            return False
    return True


def global_clustering_coefficient(edges: DataFrame) -> float:
    """3 × triangles / wedges (Fig. 4b uses the edge-induced 3-star =
    wedge for the triplet count). Wedges come from the degree sum
    ``sum C(d, 2)``, triangles from the join DAG."""
    wedges = degree_sums(edges)[0]
    if wedges == 0:
        return 0.0
    triangles = count_matches(edges, clique(3))
    return 3.0 * triangles / wedges


def cc_exceeds(edges: DataFrame, bound: float) -> bool:
    """Fig. 4b existence query: is the global clustering coefficient
    above ``bound``? Counts wedges first (a degree sum), then triangles
    — the paper stops triangle counting early once the requisite count
    is reached; the batch analog computes the count and compares."""
    wedges = degree_sums(edges)[0]
    if wedges == 0:
        return False
    return count_matches(edges, clique(3)) * 3.0 > bound * wedges


# ---------------------------------------------------------------------------
# FSM (Fig. 4a): MNI support, dynamic label discovery, anti-monotonic growth
# ---------------------------------------------------------------------------
@dataclass
class FsmResult:
    """Frequent labeled patterns (canonical) with their MNI supports,
    plus the per-iteration pattern counts for reporting."""

    frequent: dict[Pattern, int]
    patterns_examined: int

    def by_key(self) -> dict[tuple, int]:
        return {p.canonical_key(): s for p, s in self.frequent.items()}


def _discover_supports(
    edges: DataFrame, labels: DataFrame, pattern: Pattern,
    symmetry_breaking: bool = True,
) -> dict[Pattern, int]:
    """Match a (partially) labeled pattern structure once, then compute
    the MNI support of every *fully labeled* canonical pattern realized
    by its matches (dynamic label discovery, §3.2.1).

    Single Spark job: matches are joined with the label table per
    wildcard position, melted to (label-tuple, position, vertex) rows,
    mapped through a small driver-built (label-tuple, position) →
    (canonical pattern, orbit) table, and aggregated with
    ``count_distinct`` per (pattern, orbit). Support = min over orbits
    (symmetric positions share a domain — see ``mni_support``).
    """
    df = match_df(edges, pattern, labels=labels, symmetry_breaking=symmetry_breaking)
    regs = sorted(pattern.regular_vertices)
    # attach the data label of every position (wildcards discovered here)
    lab = labels
    for u in regs:
        lu = lab.select(F.col("v").alias(f"v{u}"), F.col("label").alias(f"l{u}"))
        df = df.join(lu, on=f"v{u}", how="inner")
    lcols = [f"l{u}" for u in regs]
    tuples = [tuple(r) for r in df.select(*lcols).distinct().collect()]
    if not tuples:
        return {}

    # driver-side canonicalization of each realized label tuple
    canon_patterns: dict[tuple, Pattern] = {}
    map_rows = []
    for t in tuples:
        lt = {u: t[i] for i, u in enumerate(regs)}
        q = pattern.with_labels(
            [lt.get(u) if u in regs else None for u in range(pattern.n)]
        )
        qc = q.canonical()
        key = qc.canonical_key()
        canon_patterns.setdefault(key, qc)
        # any label/structure-preserving bijection q -> qc
        perm = next(q.isomorphisms(qc))
        orbits = vertex_orbits(qc)
        orbit_of = {v: i for i, orb in enumerate(orbits) for v in orb}
        for i, u in enumerate(regs):
            map_rows.append(
                dict(
                    zip(lcols, t),
                    pos=i,
                    canon=str(key),
                    orbit=orbit_of[perm[u]],
                )
            )
    map_pdf = pd.DataFrame(map_rows)
    spark = edges.sparkSession
    map_df = F.broadcast(spark.createDataFrame(map_pdf))

    stack_expr = "stack({}, {}) as (pos, v)".format(
        len(regs), ", ".join(f"{i}, v{u}" for i, u in enumerate(regs))
    )
    stacked = df.select(*lcols, F.expr(stack_expr))
    per_orbit = (
        stacked.join(map_df, on=lcols + ["pos"], how="inner")
        .groupBy("canon", "orbit")
        .agg(F.count_distinct("v").alias("dom"))
        .collect()
    )
    supports: dict[str, int] = {}
    for row in per_orbit:
        supports[row["canon"]] = min(
            supports.get(row["canon"], 1 << 60), row["dom"]
        )
    return {
        canon_patterns[key]: supports[str(key)]
        for key in canon_patterns
        if str(key) in supports
    }


def fsm(
    edges: DataFrame,
    labels: DataFrame,
    threshold: int,
    max_edges: int = 3,
    symmetry_breaking: bool = True,
) -> FsmResult:
    """Figure 4a: start from the unlabeled 2-edge pattern (the wedge),
    discover frequent labeled patterns, and iteratively ``extendByEdge``
    until ``max_edges``, pruning by anti-monotonicity of MNI support
    (if no labeling of any ``k``-edge structure is frequent, no
    ``k+1``-edge pattern can be, so iteration stops).

    Candidate labelings of one structure are matched as a *batch*: the
    structure is matched once with wildcard labels and every realized
    labeling's MNI support falls out of the same match DataFrame
    (``_discover_supports``) — the dataflow analog of Peregrine matching
    a set of patterns in one exploration pass. A per-labeled-candidate
    match loop gives identical results but pays one Spark job per
    pattern, which at lite scale is pure scheduler overhead.
    """
    from .pattern import extend_by_edge, generate_all_edge_induced

    structures: list[Pattern] = generate_all_edge_induced(2)
    frequent: dict[tuple, tuple[Pattern, int]] = {}
    examined = 0
    for ne in range(2, max_edges + 1):
        fertile: list[Pattern] = []  # structures with >= 1 frequent labeling
        for shape in structures:
            examined += 1
            found = False
            for q, support in _discover_supports(
                edges, labels, shape, symmetry_breaking=symmetry_breaking
            ).items():
                if support >= threshold and q.canonical_key() not in frequent:
                    frequent[q.canonical_key()] = (q, support)
                    found = True
            if found:
                fertile.append(shape)
        if not fertile or ne == max_edges:
            break
        structures = [
            s for s in extend_by_edge(fertile) if len(s.edges) == ne + 1
        ]
    return FsmResult(
        frequent={p: s for p, s in frequent.values()},
        patterns_examined=examined,
    )
