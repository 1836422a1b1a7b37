"""Figure 10: symmetry-breaking ablation — PRG vs PRG-U (no symmetry
breaking, modelling not-fully-pattern-aware systems like AutoMine) on
4-motifs and low-support FSM. PRG-U produces |Aut(p)| redundant copies
of every match; results are identical, work is not. Both 4-motif runs
use the direct per-pattern loop (no morphing), so only symmetry breaking
differs."""
import pytest

from repro.core.matcher import count_matches
from repro.core.mining import count_motifs_direct
from repro.core.pattern import clique

from .conftest import run_once


@pytest.mark.parametrize("gname", ["mi", "pa"])
def test_4motifs_prg(benchmark, gname, request):
    sg = request.getfixturevalue(gname)
    run_once(benchmark, lambda: count_motifs_direct(sg.edges, 4))


@pytest.mark.parametrize("gname", ["mi", "pa"])
def test_4motifs_prgu(benchmark, gname, request):
    sg = request.getfixturevalue(gname)
    run_once(benchmark, lambda: count_motifs_direct(
        sg.edges, 4, symmetry_breaking=False))


def test_4cliques_mi_prg(benchmark, mi):
    run_once(benchmark, lambda: count_matches(mi.edges, clique(4)))


def test_4cliques_mi_prgu(benchmark, mi):
    """4-clique without symmetry breaking explores 24x the matches."""
    run_once(benchmark, lambda: count_matches(
        mi.edges, clique(4), symmetry_breaking=False))
