"""Tests for the graph extension: gSpan-style miner + subgraph classifier."""

import networkx as nx
import numpy as np
import pytest

from repro.classifiers import DecisionTree
from repro.datasets.graphs import GraphDataset, GraphSpec, generate_graphs
from repro.features.graph_pipeline import GraphPatternClassifier
from repro.mining import PatternBudgetExceeded
from repro.mining.gspan import contains_subgraph, gspan


def labelled_graph(nodes, edges):
    """nodes: {id: label}; edges: [(a, b, label)]."""
    graph = nx.Graph()
    for node, label in nodes.items():
        graph.add_node(node, label=label)
    for a, b, label in edges:
        graph.add_edge(a, b, label=label)
    return graph


@pytest.fixture(scope="module")
def triangle_db():
    """Three graphs: two contain an A-B-A triangle, one does not."""
    triangle = labelled_graph(
        {0: "A", 1: "B", 2: "A"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "y")]
    )
    with_triangle = triangle.copy()
    with_triangle.add_node(3, label="C")
    with_triangle.add_edge(3, 0, label="x")
    path_only = labelled_graph(
        {0: "A", 1: "B", 2: "C"}, [(0, 1, "x"), (1, 2, "y")]
    )
    return [triangle, with_triangle, path_only]


class TestContainsSubgraph:
    def test_edge_contained(self, triangle_db):
        edge = labelled_graph({0: "A", 1: "B"}, [(0, 1, "x")])
        assert all(contains_subgraph(g, edge) for g in triangle_db)

    def test_label_mismatch_not_contained(self, triangle_db):
        edge = labelled_graph({0: "A", 1: "B"}, [(0, 1, "z")])
        assert not any(contains_subgraph(g, edge) for g in triangle_db)

    def test_triangle_contained_only_where_present(self, triangle_db):
        triangle = labelled_graph(
            {0: "A", 1: "B", 2: "A"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "y")]
        )
        containment = [contains_subgraph(g, triangle) for g in triangle_db]
        assert containment == [True, True, False]


class TestGspan:
    def test_single_edges_found(self, triangle_db):
        patterns = gspan(triangle_db, min_support=3, max_edges=1)
        # A-x-B is the only edge in all three graphs.
        assert len(patterns) == 1
        assert patterns[0].support == 3

    def test_growth_finds_triangle(self, triangle_db):
        patterns = gspan(triangle_db, min_support=2, max_edges=3)
        triangles = [p for p in patterns if p.n_edges == 3 and p.n_nodes == 3]
        assert any(p.support == 2 for p in triangles)

    def test_supports_correct(self, triangle_db):
        for pattern in gspan(triangle_db, min_support=1, max_edges=2):
            recount = sum(
                1 for g in triangle_db if contains_subgraph(g, pattern.graph)
            )
            assert recount == pattern.support

    def test_no_duplicate_patterns(self, triangle_db):
        patterns = gspan(triangle_db, min_support=1, max_edges=3)
        from networkx.algorithms.isomorphism import (
            GraphMatcher,
            categorical_edge_match,
            categorical_node_match,
        )

        for i, a in enumerate(patterns):
            for b in patterns[i + 1 :]:
                if a.n_nodes == b.n_nodes and a.n_edges == b.n_edges:
                    matcher = GraphMatcher(
                        a.graph,
                        b.graph,
                        node_match=categorical_node_match("label", None),
                        edge_match=categorical_edge_match("label", None),
                    )
                    assert not matcher.is_isomorphic()

    def test_antimonotone_support(self, triangle_db):
        patterns = gspan(triangle_db, min_support=1, max_edges=3)
        by_edges = {}
        for pattern in patterns:
            by_edges.setdefault(pattern.n_edges, []).append(pattern.support)
        sizes = sorted(by_edges)
        for small, large in zip(sizes, sizes[1:]):
            assert max(by_edges[small]) >= max(by_edges[large])

    def test_budget(self, triangle_db):
        with pytest.raises(PatternBudgetExceeded):
            gspan(triangle_db, min_support=1, max_edges=3, max_patterns=2)

    def test_validation(self, triangle_db):
        with pytest.raises(ValueError):
            gspan(triangle_db, min_support=0)
        with pytest.raises(ValueError):
            gspan(triangle_db, min_support=1, max_edges=0)


class TestGraphDataset:
    def test_generation_deterministic(self):
        spec = GraphSpec(name="g", n_rows=20, seed=2)
        a = generate_graphs(spec)
        b = generate_graphs(spec)
        assert (a.labels == b.labels).all()
        for ga, gb in zip(a.graphs, b.graphs):
            assert nx.utils.graphs_equal(ga, gb)

    def test_motifs_embedded(self):
        spec = GraphSpec(name="g", n_rows=60, motif_strength=1.0, seed=3)
        data, motifs = generate_graphs(spec, return_motifs=True)
        partition = data.class_partition()
        motif = motifs[0][0]
        hits = sum(1 for g in partition[0] if contains_subgraph(g, motif))
        assert hits / len(partition[0]) > 0.4

    def test_missing_label_rejected(self):
        bad = nx.Graph()
        bad.add_node(0)
        with pytest.raises(ValueError, match="label"):
            GraphDataset("x", [bad], np.array([0]), n_classes=1)

    def test_subset(self):
        data = generate_graphs(GraphSpec(name="g", n_rows=10, seed=1))
        subset = data.subset([0, 3])
        assert subset.n_rows == 2
        assert subset.graphs[1] is data.graphs[3]


@pytest.mark.slow
class TestGraphClassifier:
    @pytest.fixture(scope="class")
    def data(self):
        return generate_graphs(GraphSpec(name="gcls", n_rows=120, seed=7))

    def test_beats_chance(self, data):
        half = data.n_rows // 2
        train, test = data.subset(range(half)), data.subset(range(half, data.n_rows))
        model = GraphPatternClassifier(min_support=0.3, max_edges=3).fit(train)
        chance = max(np.bincount(test.labels)) / test.n_rows
        assert model.score(test) > chance + 0.05

    def test_any_classifier(self, data):
        model = GraphPatternClassifier(
            classifier=DecisionTree(), min_support=0.35, max_edges=2
        ).fit(data)
        assert 0.0 <= model.score(data) <= 1.0

    def test_selected_supports_exact(self, data):
        model = GraphPatternClassifier(min_support=0.4, max_edges=2).fit(data)
        for pattern in model.selected_[:5]:
            recount = sum(
                1 for g in data.graphs if contains_subgraph(g, pattern.graph)
            )
            assert recount == pattern.support

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphPatternClassifier(min_support=0)
        with pytest.raises(ValueError):
            GraphPatternClassifier(delta=0)

    def test_unfitted(self, data):
        with pytest.raises(RuntimeError):
            GraphPatternClassifier().predict(data)
