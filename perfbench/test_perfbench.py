"""Tests of the benchmark itself: inputs, oracle, and a smoke run.

Run from the root of the repository::

    python3 -m pytest perfbench -q

The smoke runs start Spark on tiny graphs (``--smoke``); they check that
the oracle agrees with the engine and that every metric named in
``BENCHMARK.json`` is emitted.
"""
from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
from workloads import PATTERNS, WORKLOADS, Query  # noqa: E402

BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _tables(names, seed=0):
    out = {}
    for name in names:
        g = inputs.generate(name, seed)
        out[name] = (g.edges_pdf, g.labels_pdf)
    return out


# -- inputs ------------------------------------------------------------------
def test_default_seed_reproduces_the_lite_datasets():
    from repro.graph import datasets

    factories = {"MI": datasets.mico_lite, "PA": datasets.patents_lite,
                 "OK": datasets.orkut_lite}
    recorded = {
        r["G"]: r for r in json.load(open(os.path.join(ROOT, "results", "table2_datasets.json")))
    }
    for name, factory in factories.items():
        g, ref = inputs.generate(name, 0), factory()
        assert g.edges_pdf.equals(ref.edges_pdf)
        if ref.labels_pdf is None:
            assert g.labels_pdf is None
        else:
            assert g.labels_pdf.equals(ref.labels_pdf)
        assert (g.n_vertices, g.n_edges) == (recorded[name]["V"], recorded[name]["E"])


def test_other_seeds_change_graphs_and_planted_clique():
    for name in ("MI", "PA", "OK"):
        a, b = inputs.generate(name, 0), inputs.generate(name, 1)
        assert not a.edges_pdf.equals(b.edges_pdf)
        assert inputs.generate(name, 1).edges_pdf.equals(b.edges_pdf)
    base, k = inputs.PLANTED["PA+K4"]
    g0 = inputs.generate(base, 0)
    assert inputs.clique_members(g0, k, 0) != inputs.clique_members(g0, k, 1)
    for g in (inputs.generate("PA+K4", s) for s in (0, 1)):
        assert oracle._answer(Query("exists_clique", "x", k), g.edges_pdf, None)
        assert not oracle._answer(Query("exists_clique", "x", k + 1), g.edges_pdf, None)


# -- oracle ---------------------------------------------------------------------
def test_pattern_specs_are_the_papers_patterns():
    from engine import to_pattern
    from repro.patterns_eval import EVAL_PATTERNS

    for name, spec in PATTERNS.items():
        p = to_pattern(spec)
        assert p == EVAL_PATTERNS[name]
        assert oracle.automorphisms(spec) == len(p.automorphisms())


def _recorded(path: str, row_key, cell: str) -> dict:
    rows = json.load(open(os.path.join(ROOT, "results", path)))
    return {row_key(r): r[cell]["value"] for r in rows}


def test_default_seed_answers_agree_with_recorded_results():
    table3 = _recorded("table3_bfs.json", lambda r: (r["app"], r["g"]), "prg")
    table6 = _recorded("table6_constraints.json", lambda r: ("p7", r["g"]), "p7")
    queries = [
        (Query("motifs", "OK", 3), table3[("3-Motifs", "OK")]),
        (Query("motifs", "MI", 3), table3[("3-Motifs", "MI")]),
        (Query("cliques", "OK", 4), table3[("4-Cliques", "OK")]),
        (Query("cliques", "PA", 4), table3[("4-Cliques", "PA")]),
        (Query("cliques", "OK", 5), table3[("5-Cliques", "OK")]),
        (Query("match", "OK", "p7"), table6[("p7", "OK")]),
    ]
    got = oracle.expected(_tables(["MI", "PA", "OK"]), [q for q, _ in queries])
    for q, want in queries:
        assert got[q.name] == ast.literal_eval(want), q.name
    assert got["cliques(4)@OK"] == 1126
    assert got["motifs(3)@OK"] == {"wedge": 543590, "triangle": 5825}


# -- the command ------------------------------------------------------------------
def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_emits_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr[-3000:]
    assert result["attempted"] == len(WORKLOADS[workload])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("per_layer")
    record = json.load(open(os.path.join(HERE, "out", "runs", f"{workload}-seed3-trace1.json")))
    assert record["manifest"]["seed"] == 3
    assert record["manifest"]["spark_conf"]["spark.sql.shuffle.partitions"] == "32"
    for q in record["queries"]:
        # the layer spans never cover more than the query's own time
        assert q["self_s"] >= -1e-3, q


def test_smoke_untraced_run_emits_every_end_to_end_metric():
    proc = _run("--workload", "patterns", "--seed", "0", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "motifs", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
