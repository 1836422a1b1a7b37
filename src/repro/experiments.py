"""One runner per evaluation table (see DESIGN.md §4 table index).

Each ``run_*`` function executes every cell of the corresponding paper
table on the lite datasets and returns ``(markdown, rows)``; jobs print
the markdown and EXPERIMENTS.md records paper-vs-measured shape.

Systems:
  PRG  — the pattern-aware engine (this reproduction's core)
  PRG-U — PRG without symmetry breaking (Figure 10 / AutoMine model)
  ABQ  — Arabesque stand-in  (BFS filter-process, baseline.bfs mode=abq)
  RS   — RStream stand-in    (relational BFS, baseline.bfs mode=rs)
  FCL  — Fractal stand-in    (DFS tasks, baseline.dfs)
  GM   — G-Miner stand-in    (purpose-built tasks, baseline.purpose)
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import SparkSession

from .baseline import bfs, dfs, purpose
from .core import mining
from .core.matcher import count_matches
from .core.pattern import clique
from .graph import datasets
from .harness import (
    BASELINE_BUDGET,
    Cell,
    SparkGraph,
    markdown_table,
    run_cell,
    speedup,
)
from .patterns_eval import EVAL_PATTERNS, P2, P7, P8

#: FSM thresholds per labeled graph: scaled-down analogs of the paper's
#: 2K–4K (Mico) and 20K–23K (Patents) supports.
FSM_TAUS_MI = (40, 30, 20)
FSM_TAUS_PA = (40, 30, 20)


def _load(spark: SparkSession, names: list[str]) -> dict[str, SparkGraph]:
    return {
        name: SparkGraph.load(spark, g)
        for name, g in datasets.all_datasets().items()
        if name in names
    }


# ---------------------------------------------------------------------------
# Figure 1b/1c — profiling tables (matches explored / canonicality /
# isomorphism computations, vs result size)
# ---------------------------------------------------------------------------
def run_fig1_profile(spark: SparkSession) -> tuple[str, list[dict]]:
    sg = SparkGraph.load(spark, datasets.patents_lite())
    rows: list[dict] = []

    def add(app, system, explored, canon, iso, result):
        ratio = f"{explored / max(result, 1):.1f}x" if explored else "1.0x"
        rows.append(
            dict(app=app, system=system, explored=explored, ratio=ratio,
                 canonicality=canon, isomorphism=iso, result=result)
        )

    # 4-clique counting (Figure 1b) — profiling runs to completion
    # (budget=None), the counts ARE the experiment
    n4 = count_matches(sg.edges, clique(4))
    add("4-Clique", "PRG", n4, 0, 0, n4)
    m = bfs.bfs_count_cliques(sg.edges, sg.graph.edges_pdf, 4, mode="abq", budget=None)
    add("4-Clique", "ABQ", m.explored, m.canonicality, m.isomorphism, m.result)
    m = bfs.bfs_count_cliques(sg.edges, sg.graph.edges_pdf, 4, mode="rs", budget=None)
    add("4-Clique", "RS", m.explored, m.canonicality, m.isomorphism, m.result)
    m = dfs.dfs_count_cliques(sg.edges, sg.graph.edges_pdf, 4, budget=None)
    add("4-Clique", "FCL", m.explored, m.canonicality, m.isomorphism, m.result)

    # 3-motif counting (Figure 1c)
    prg = mining.count_motifs(sg.edges, 3)
    total3 = sum(prg.values())
    add("3-Motif", "PRG", total3, 0, 0, total3)
    m = bfs.bfs_count_motifs(sg.edges, sg.graph.edges_pdf, 3, mode="abq", budget=None)
    add("3-Motif", "ABQ", m.explored, m.canonicality, m.isomorphism,
        sum(m.result.values()))
    m = bfs.bfs_count_motifs(sg.edges, sg.graph.edges_pdf, 3, mode="rs", budget=None)
    add("3-Motif", "RS", m.explored, m.canonicality, m.isomorphism,
        sum(m.result.values()))
    m = dfs.dfs_count_motifs(sg.edges, sg.graph.edges_pdf, 3, budget=None)
    add("3-Motif", "FCL", m.explored, m.canonicality, m.isomorphism,
        sum(m.result.values()))
    sg.unload()

    md = markdown_table(
        ["App", "System", "Total matches", "vs result", "Canonicality", "Isomorphism", "Result"],
        [[r["app"], r["system"], r["explored"], r["ratio"], r["canonicality"],
          r["isomorphism"], r["result"]] for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Table 2 — dataset statistics
# ---------------------------------------------------------------------------
def run_table2(spark: Optional[SparkSession] = None) -> tuple[str, list[dict]]:
    import pandas as pd

    pdf = datasets.dataset_stats()
    rows = pdf.to_dict("records")
    md = markdown_table(
        ["G", "|V(G)|", "|E(G)|", "|L(G)|", "Max deg", "Avg deg"],
        [[r["G"], r["V"], r["E"],
          "—" if pd.isna(r["L"]) else int(r["L"]), r["max_deg"], r["avg_deg"]]
         for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Table 3 — PRG vs breadth-first systems (Arabesque, RStream)
# ---------------------------------------------------------------------------
def _fsm_workloads() -> list[tuple[str, str, int]]:
    return [(f"{tau}-FSM", g, tau)
            for g, taus in (("MI", FSM_TAUS_MI), ("PA-labeled", FSM_TAUS_PA))
            for tau in taus]


def run_table3(spark: SparkSession, quick: bool = False) -> tuple[str, list[dict]]:
    """Motifs, FSM and cliques on PRG / ABQ / RS. Baselines run on the
    labeled/unlabeled MI and PA graphs (the paper's OK/FR baseline cells
    are out-of-memory/disk; here the budget plays that role and large
    graphs exhaust it immediately, so they are only attempted for PRG)."""
    graphs = _load(spark, ["MI", "PA", "PA-labeled", "OK", "FR"])
    rows: list[dict] = []
    small = ["MI", "PA"]
    prg_graphs = small if quick else ["MI", "PA", "OK", "FR"]

    def cell_row(app, gname, prg, abq, rs):
        rows.append(dict(app=app, g=gname, prg=prg, abq=abq, rs=rs))

    for k, app in ((3, "3-Motifs"), (4, "4-Motifs")):
        for gname in prg_graphs:
            sg = graphs[gname]
            prg = run_cell(lambda: mining.count_motifs(sg.edges, k))
            if gname in small:
                abq = run_cell(lambda: bfs.bfs_count_motifs(
                    sg.edges, sg.graph.edges_pdf, k, mode="abq",
                    budget=BASELINE_BUDGET).result)
                rs = run_cell(lambda: bfs.bfs_count_motifs(
                    sg.edges, sg.graph.edges_pdf, k, mode="rs",
                    budget=BASELINE_BUDGET).result)
            else:
                abq = rs = Cell(seconds=None)
            cell_row(app, gname, prg, abq, rs)
    for app, gname, tau in _fsm_workloads():
        sg = graphs[gname]
        prg = run_cell(lambda: mining.fsm(sg.edges, sg.labels, tau))
        abq = run_cell(lambda: bfs.bfs_fsm(
            sg.edges, sg.graph.edges_pdf, sg.graph.labels_pdf, tau,
            budget=BASELINE_BUDGET).result)
        cell_row(app, gname, prg, abq, Cell(seconds=None))  # RS OOMs on FSM (paper: 'x')
    for k in (3, 4, 5):
        for gname in prg_graphs:
            sg = graphs[gname]
            prg = run_cell(lambda: mining.count_cliques(sg.edges, k))
            if gname in small:
                abq = run_cell(lambda: bfs.bfs_count_cliques(
                    sg.edges, sg.graph.edges_pdf, k, mode="abq",
                    budget=BASELINE_BUDGET).result)
                rs = run_cell(lambda: bfs.bfs_count_cliques(
                    sg.edges, sg.graph.edges_pdf, k, mode="rs",
                    budget=BASELINE_BUDGET).result)
            else:
                abq = rs = Cell(seconds=None)
            cell_row(f"{k}-Cliques", gname, prg, abq, rs)
    for sg in graphs.values():
        sg.unload()
    md = markdown_table(
        ["App", "G", "PRG (s)", "ABQ (s)", "RS (s)", "ABQ/PRG", "RS/PRG"],
        [[r["app"], r["g"], r["prg"].fmt_time(), r["abq"].fmt_time(),
          r["rs"].fmt_time(), speedup(r["prg"], r["abq"]),
          speedup(r["prg"], r["rs"])] for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Table 4 — PRG vs depth-first (Fractal), incl. pattern matching p1..p6
# ---------------------------------------------------------------------------
def run_table4(spark: SparkSession, quick: bool = False) -> tuple[str, list[dict]]:
    graphs = _load(spark, ["MI", "PA", "PA-labeled", "OK", "FR"])
    rows: list[dict] = []
    small = ["MI", "PA"]
    prg_graphs = small if quick else ["MI", "PA", "OK", "FR"]

    def add(app, gname, prg, fcl):
        rows.append(dict(app=app, g=gname, prg=prg, fcl=fcl))

    for k, app in ((3, "3-Motifs"), (4, "4-Motifs")):
        for gname in prg_graphs:
            sg = graphs[gname]
            prg = run_cell(lambda: mining.count_motifs(sg.edges, k))
            fcl = (run_cell(lambda: dfs.dfs_count_motifs(
                sg.edges, sg.graph.edges_pdf, k, budget=BASELINE_BUDGET).result)
                if gname in small else Cell(seconds=None))
            add(app, gname, prg, fcl)
    # FCL FSM / large-pattern cells: DFS budgets are per task (the
    # worker-memory analog); a small per-task budget makes resource
    # exhaustion report quickly instead of grinding 64 tasks to their
    # full individual budgets.
    fsm_budget = BASELINE_BUDGET // 64
    for app, gname, tau in _fsm_workloads():
        sg = graphs[gname]
        prg = run_cell(lambda: mining.fsm(sg.edges, sg.labels, tau))
        fcl = run_cell(lambda: dfs.dfs_fsm(
            sg.edges, sg.graph.edges_pdf, sg.graph.labels_pdf, tau,
            budget=fsm_budget).result)
        add(app, gname, prg, fcl)
    for k in (3, 4, 5):
        for gname in prg_graphs:
            sg = graphs[gname]
            prg = run_cell(lambda: mining.count_cliques(sg.edges, k))
            fcl = (run_cell(lambda: dfs.dfs_count_cliques(
                sg.edges, sg.graph.edges_pdf, k, budget=BASELINE_BUDGET).result)
                if gname in small else Cell(seconds=None))
            add(f"{k}-Cliques", gname, prg, fcl)
    for pname in ("p1", "p2", "p3", "p4", "p5", "p6"):
        pat = EVAL_PATTERNS[pname]
        match_graphs = small if pname == "p6" else prg_graphs  # paper: p6 on MI/PA only
        for gname in match_graphs:
            # p2 is labeled: use the labeled graphs (MI is labeled; for
            # PA/OK/FR the paper adds synthetic labels — our PA-labeled
            # stands in; unlabeled graphs skip p2)
            sg = graphs["PA-labeled" if (pname == "p2" and gname == "PA") else gname]
            if pat.labels.count(None) < pat.n and sg.labels is None:
                continue
            prg = run_cell(lambda: count_matches(
                sg.edges, pat, labels=sg.labels))
            # 5-vertex patterns make the pattern-oblivious DFS enumerate
            # all connected 5-sets — tens of millions even on MI-lite;
            # the small per-task budget reports the blow-up as '—'
            match_budget = BASELINE_BUDGET if pat.n <= 4 else BASELINE_BUDGET // 64
            fcl = (run_cell(lambda: dfs.dfs_match_pattern(
                sg.edges, sg.graph.edges_pdf, pat,
                labels_pdf=sg.graph.labels_pdf, budget=match_budget).result)
                if gname in small else Cell(seconds=None))
            add(f"Match {pname}", gname, prg, fcl)
    for sg in graphs.values():
        sg.unload()
    md = markdown_table(
        ["App", "G", "PRG (s)", "FCL (s)", "FCL/PRG"],
        [[r["app"], r["g"], r["prg"].fmt_time(), r["fcl"].fmt_time(),
          speedup(r["prg"], r["fcl"])] for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Table 5 — PRG vs purpose-built (G-Miner): 3-cliques + labeled p2
# ---------------------------------------------------------------------------
def run_table5(spark: SparkSession) -> tuple[str, list[dict]]:
    graphs = _load(spark, ["MI", "PA", "PA-labeled", "OK", "FR"])
    rows: list[dict] = []
    for gname in ("MI", "PA", "OK", "FR"):
        sg = graphs[gname]
        prg = run_cell(lambda: mining.count_cliques(sg.edges, 3))
        gm = run_cell(lambda: purpose.gminer_triangle_count(sg.edges).result)
        rows.append(dict(app="3-Cliques", g=gname, prg=prg, gm=gm))
    for gname in ("MI", "PA"):
        sg = graphs["PA-labeled" if gname == "PA" else gname]
        prg = run_cell(lambda: count_matches(sg.edges, P2, labels=sg.labels))
        gm = run_cell(lambda: purpose.gminer_match_labeled_triangle(
            sg.edges, sg.labels, P2).result)
        rows.append(dict(app="Match p2", g=gname, prg=prg, gm=gm))
    for sg in graphs.values():
        sg.unload()
    md = markdown_table(
        ["App", "G", "PRG (s)", "GM (s)", "GM/PRG"],
        [[r["app"], r["g"], r["prg"].fmt_time(), r["gm"].fmt_time(),
          speedup(r["prg"], r["gm"])] for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Table 6 — constrained mining: anti-vertex p7, anti-edge p8, 14-clique
# existence
# ---------------------------------------------------------------------------
def run_table6(spark: SparkSession) -> tuple[str, list[dict]]:
    graphs = _load(spark, ["MI", "PA", "OK", "FR"])
    rows: list[dict] = []
    for gname in ("MI", "PA", "OK", "FR"):
        sg = graphs[gname]
        ex = run_cell(lambda: mining.exists_clique(sg.edges, 14))
        av = run_cell(lambda: count_matches(sg.edges, P7))
        ae = run_cell(lambda: count_matches(sg.edges, P8))
        rows.append(dict(g=gname, exist=ex, p7=av, p8=ae))
    for sg in graphs.values():
        sg.unload()
    md = markdown_table(
        ["G", "14-Clique exists (s)", "found?", "Anti-Vertex p7 (s)", "p7 count",
         "Anti-Edge p8 (s)", "p8 count"],
        [[r["g"], r["exist"].fmt_time(), r["exist"].fmt_value(),
          r["p7"].fmt_time(), r["p7"].fmt_value(),
          r["p8"].fmt_time(), r["p8"].fmt_value()] for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Figure 10 — symmetry breaking on/off (PRG vs PRG-U)
# ---------------------------------------------------------------------------
def run_fig10(spark: SparkSession) -> tuple[str, list[dict]]:
    """PRG vs PRG-U on 4-motifs (MI, PA and the dense OK, where the
    redundant |Aut| copies dominate) and on low-support FSM. Both motif
    columns run the direct per-pattern loop, so the ratio measures
    symmetry breaking alone, not morphing."""
    graphs = _load(spark, ["MI", "PA", "PA-labeled", "OK"])
    rows: list[dict] = []
    for gname in ("MI", "PA", "OK"):
        sg = graphs[gname]
        prg = run_cell(lambda: mining.count_motifs_direct(sg.edges, 4))
        prgu = run_cell(lambda: mining.count_motifs_direct(
            sg.edges, 4, symmetry_breaking=False))
        assert prg.value == prgu.value, "PRG-U must match PRG results"
        rows.append(dict(app="4-Motifs", g=gname, prg=prg, prgu=prgu))
    for gname, tau in (("MI", FSM_TAUS_MI[-1]), ("PA-labeled", FSM_TAUS_PA[-1])):
        sg = graphs[gname]
        prg = run_cell(lambda: mining.fsm(sg.edges, sg.labels, tau).by_key())
        prgu = run_cell(lambda: mining.fsm(
            sg.edges, sg.labels, tau, symmetry_breaking=False).by_key())
        assert prg.value == prgu.value, "PRG-U must match PRG results"
        rows.append(dict(app=f"{tau}-FSM", g=gname, prg=prg, prgu=prgu))
    for sg in graphs.values():
        sg.unload()
    md = markdown_table(
        ["App", "G", "PRG (s)", "PRG-U (s)", "PRG-U/PRG"],
        [[r["app"], r["g"], r["prg"].fmt_time(), r["prgu"].fmt_time(),
          speedup(r["prg"], r["prgu"])] for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Table 1 — performance summary, derived from Tables 3–5 + Fig 10 rows
# ---------------------------------------------------------------------------
def summarize_table1(
    t3_rows: list[dict], t4_rows: list[dict], t5_rows: list[dict],
    f10_rows: list[dict],
) -> tuple[str, list[dict]]:
    def ratios(rows, key):
        out = []
        for r in rows:
            c, prg = r.get(key), r["prg"]
            if c is not None and c.seconds is not None and prg.seconds:
                out.append(c.seconds / prg.seconds)
        return out

    def fails(rows, key):
        return sum(
            1 for r in rows
            if r.get(key) is not None and r[key].seconds is None
            and r["prg"].seconds is not None
        )

    summary = []
    for system, rows, key in (
        ("Arabesque (ABQ)", t3_rows, "abq"),
        ("RStream (RS)", t3_rows, "rs"),
        ("Fractal (FCL)", t4_rows, "fcl"),
        ("G-Miner (GM)", t5_rows, "gm"),
        ("PRG-U (no sym. breaking)", f10_rows, "prgu"),
    ):
        rs = ratios(rows, key)
        summary.append(
            dict(system=system,
                 min=f"{min(rs):.1f}x" if rs else "—",
                 max=f"{max(rs):.1f}x" if rs else "—",
                 cells=len(rs),
                 failed=fails(rows, key))
        )
    md = markdown_table(
        ["vs system", "min speedup", "max speedup", "comparable cells",
         "cells failed (budget) where PRG succeeded"],
        [[s["system"], s["min"], s["max"], s["cells"], s["failed"]]
         for s in summary],
    )
    return md, summary
