"""The paper's guarantees on every graph of the atlas with an edge.

networkx's atlas (Read & Wilson's "An Atlas of Graphs") holds all 1,253
graphs on 0 to 7 vertices; the 1,245 with at least one edge are checked
exhaustively, not sampled.
"""

from fractions import Fraction

import pytest

from densub.detect_congest import congest_detect
from densub.detect_local import local_detect
from densub.graphs import Graph, density
from densub.oracle import exact_densest
from densub.orient import weak_orientation


@pytest.fixture(scope="module")
def atlas() -> list[Graph]:
    nx = pytest.importorskip("networkx")
    graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    graphs = [g for g in graphs if g.m]
    assert len(graphs) == 1245
    return graphs


def test_local_detection_and_weak_orientation_on_every_atlas_graph(atlas):
    for g in atlas:
        d = exact_densest(g).value
        for eps in (Fraction(1, 2), Fraction(1, 5)):
            marked = local_detect(g, d, eps)[0]
            assert marked, (g.edges, eps)
            assert density(g, marked) >= (1 - eps) * d, (g.edges, eps)
        o = weak_orientation(g).orientation
        assert all(
            x >= g.degree(v) // 3 for v, x in enumerate(o.outdegs())
        ), g.edges


def test_congest_detection_is_sound_on_every_atlas_graph(atlas):
    # soundness holds on every run; completeness only w.h.p., so the empty
    # outputs are counted and pinned rather than forbidden
    eps, empty = Fraction(1, 8), 0
    for g in atlas:
        d = exact_densest(g).value
        marked = congest_detect(g, d, eps, 1)[0]
        empty += not marked
        assert not marked or density(g, marked) >= (1 - eps) * d, g.edges
    assert empty == 0
