"""Expected answers, computed without the engine.

The answers are computed from the generated edge and label tables
alone, with networkx (cliques, triangles, degrees) or with DuckDB plain
joins over every injective embedding, divided by the pattern's
automorphism count taken from networkx. Nothing here imports the engine
(``repro.core``) or the repository's own oracles; only the input
generator is shared, so that both sides see the same graphs. Answers
are cached per workload and input fingerprint, so a seed's answers are
computed once per checkout and never inside a timed run.

``run.py`` runs this file as a child process, so the oracle's memory
never counts towards the benchmark's peak RSS::

    python3 perfbench/oracle.py --workload motifs --seed 0
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from math import comb

import duckdb
import networkx as nx
import pandas as pd

from workloads import PATTERNS, PatternSpec, Query


def fingerprint(workload: str, tables: dict, queries: list[Query]) -> str:
    """Digest of the queries and every input table they read."""
    h = hashlib.sha1(workload.encode())
    for q in queries:
        h.update(q.name.encode())
    for name in sorted(tables):
        h.update(name.encode())
        for pdf in tables[name]:
            if pdf is not None:
                h.update(pd.util.hash_pandas_object(pdf, index=False).to_numpy().tobytes())
    return h.hexdigest()[:16]


def cached_answers(cache_dir: str, workload: str, tables: dict,
                   queries: list[Query]) -> dict:
    """``{query name: answer}``, from the cache or computed and cached."""
    path = os.path.join(
        cache_dir, f"answers-{workload}-{fingerprint(workload, tables, queries)}.json"
    )
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    answers = expected(tables, queries)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(answers, f, sort_keys=True)
    os.replace(tmp, path)
    return answers


def expected(tables: dict, queries: list[Query]) -> dict:
    """Answer every query. ``tables`` maps a graph name to its symmetric
    ``(edges(src, dst), labels(v, label) or None)`` frames."""
    out = {}
    for q in queries:
        if q.name in out:
            continue
        edges, labels = tables[q.graph]
        out[q.name] = _answer(q, edges, labels)
    return out


def _answer(q: Query, edges: pd.DataFrame, labels) -> object:
    if q.kind == "cliques":
        return count_cliques(_nx(edges), q.arg)
    if q.kind == "exists_clique":
        return max(len(c) for c in nx.find_cliques(_nx(edges))) >= q.arg
    if q.kind == "motifs":
        return count_motifs(edges, q.arg)
    if q.kind == "match":
        return count_pattern(edges, labels, PATTERNS[q.arg])
    raise ValueError(f"unknown query kind {q.kind!r}")


def _nx(edges: pd.DataFrame) -> nx.Graph:
    g = nx.Graph()
    g.add_edges_from(zip(edges.src.tolist(), edges.dst.tolist()))
    return g


def count_cliques(g: nx.Graph, k: int) -> int:
    n = 0
    for c in nx.enumerate_all_cliques(g):  # yields cliques by size
        if len(c) > k:
            break
        n += len(c) == k
    return n


def count_motifs(edges: pd.DataFrame, size: int) -> dict[str, int]:
    """Vertex-induced 3-motif counts: triangles from networkx, open
    wedges from the degrees."""
    if size != 3:
        raise ValueError(f"no oracle for {size}-motifs")
    g = _nx(edges)
    triangles = sum(nx.triangles(g).values()) // 3
    wedges = sum(comb(d, 2) for _, d in g.degree()) - 3 * triangles
    return {"wedge": wedges, "triangle": triangles}


def count_pattern(edges: pd.DataFrame, labels, p: PatternSpec) -> int:
    """Unique matches = injective embeddings ÷ |Aut(p)|."""
    con = duckdb.connect(config={
        "threads": 4, "memory_limit": "1GB",
        "temp_directory": os.path.join(tempfile.gettempdir(), "duckdb"),
    })
    try:
        con.register("e", edges[["src", "dst"]])
        if labels is not None:
            con.register("lab", labels[["v", "label"]])
        (embeddings,) = con.execute(_embedding_sql(p)).fetchone()
    finally:
        con.close()
    aut = automorphisms(p)
    if embeddings % aut:
        raise AssertionError(f"{embeddings} embeddings not divisible by |Aut| = {aut}")
    return embeddings // aut


def _embedding_sql(p: PatternSpec) -> str:
    """COUNT(*) over every injective map of the regular vertices that
    keeps edges, anti-edges, anti-vertices and labels."""
    froms, where, col = [], [], {}
    for i, (a, b) in enumerate(p.edges):
        froms.append(f"e AS t{i}")
        for v, c in ((a, f"t{i}.src"), (b, f"t{i}.dst")):
            if v in col:
                where.append(f"{c} = {col[v]}")
            else:
                col[v] = c
    regs = range(p.n)
    where += [f"{col[a]} <> {col[b]}" for a, b in itertools.combinations(regs, 2)]
    for a, b in p.anti_edges:
        where.append(
            f"NOT EXISTS (SELECT 1 FROM e x WHERE x.src = {col[a]} AND x.dst = {col[b]})"
        )
    for v, label in enumerate(p.labels or ()):
        if label is not None:
            froms.append(f"lab AS l{v}")
            where += [f"l{v}.v = {col[v]}", f"l{v}.label = {int(label)}"]
    cols = [f"c{v}" for v in regs]
    ctes = [
        f"m AS (SELECT {', '.join(f'{col[v]} AS c{v}' for v in regs)} "
        f"FROM {', '.join(froms)} WHERE {' AND '.join(where)})"
    ]
    final = []
    for k, nbrs in enumerate(p.anti_vertices.values()):
        # embeddings with a witness: a vertex outside the match adjacent
        # to every anti-neighbor
        conds = [f"w{j}.src = m.c{u}" for j, u in enumerate(nbrs)]
        conds += [f"w{j}.dst = w0.dst" for j in range(1, len(nbrs))]
        conds.append(f"w0.dst NOT IN ({', '.join('m.' + c for c in cols)})")
        ws = ", ".join(f"e AS w{j}" for j in range(len(nbrs)))
        ctes.append(
            f"bad{k} AS (SELECT DISTINCT {', '.join('m.' + c for c in cols)} "
            f"FROM m, {ws} WHERE {' AND '.join(conds)})"
        )
        same = " AND ".join(f"b.{c} = m.{c}" for c in cols)
        final.append(f"NOT EXISTS (SELECT 1 FROM bad{k} b WHERE {same})")
    tail = f" WHERE {' AND '.join(final)}" if final else ""
    return f"WITH {', '.join(ctes)} SELECT COUNT(*) FROM m{tail}"


def automorphisms(p: PatternSpec) -> int:
    """|Aut(p)| over regular and anti-vertices, edges and anti-edges."""
    g = nx.Graph()
    for v in range(p.n):
        g.add_node(v, kind="regular", label=p.labels[v] if p.labels else None)
    for av in p.anti_vertices:
        g.add_node(av, kind="anti", label=None)
    g.add_edges_from(p.edges, anti=False)
    g.add_edges_from(p.anti_edges, anti=True)
    for av, nbrs in p.anti_vertices.items():
        g.add_edges_from(((av, u) for u in nbrs), anti=True)
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        g, g, node_match=lambda a, b: a == b, edge_match=lambda a, b: a == b
    )
    return sum(1 for _ in matcher.isomorphisms_iter())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="expected answers as JSON")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import inputs
    from workloads import WORKLOADS, graphs_of

    tables = {}
    for name in graphs_of(args.workload):
        g = inputs.generate(name, args.seed, args.smoke)
        tables[name] = (g.edges_pdf, g.labels_pdf)
    answers = cached_answers(os.path.join(here, "out", "cache"), args.workload,
                             tables, WORKLOADS[args.workload])
    print(json.dumps(answers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
